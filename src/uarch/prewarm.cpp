/**
 * @file
 * Closed-form prewarm solver (see prewarm.h for the proof sketch).
 */

#include "uarch/prewarm.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <type_traits>

#include "obs/metrics.h"
#include "trace/address_stream.h"

namespace speclens {
namespace uarch {

namespace {

using Segment = PrewarmSolver::Segment;

/**
 * One warmup reference stream for one structure: its segments plus the
 * running element and fill totals that anchor each segment's absolute
 * stamps.
 */
struct Stream
{
    std::vector<Segment> segments;
    std::uint64_t elems = 0;
    std::uint64_t fills = 0;
};

/** One data region of the prewarm walk: @p elements references
 *  @p stride bytes apart from @p base. */
struct WalkRegion
{
    std::uint64_t base;
    std::uint64_t stride;
    std::uint64_t elements;
};

/** What the prewarm walk references, in walk order. */
struct WalkPlan
{
    /** The LLC-resident working sets, last set first. */
    std::vector<WalkRegion> data;
    /** Code lines fetched after the data, from trace::kCodeBase. */
    std::uint64_t code_lines = 0;
};

/**
 * The one statement of which regions the prewarm walk visits, shared
 * by apply() and walk().  Working sets go in reverse order, each
 * max(1, bytes / stride) elements from its own base.  Each element
 * occupies one cache line, so a set is LLC-resident, and walked,
 * exactly when its element count fits @p llc_lines.  The code
 * footprint follows, rounded up to whole lines, so the hot region ends
 * up most recently used.  A zero stride (no validated profile has one)
 * gives a region of no elements, which apply() refuses.
 */
WalkPlan
walkPlan(const trace::WorkloadProfile &profile, std::uint64_t llc_lines)
{
    WalkPlan plan;
    const auto &sets = profile.memory.data;
    for (std::size_t i = sets.size(); i-- > 0;) {
        auto stride = static_cast<std::uint64_t>(sets[i].stride_bytes);
        std::uint64_t elements =
            stride == 0 ? 0
                        : std::max<std::uint64_t>(
                              1, static_cast<std::uint64_t>(sets[i].bytes) /
                                     stride);
        if (elements > llc_lines)
            continue;
        plan.data.push_back(
            {trace::kDataBase + i * trace::kDataRegionStride, stride,
             elements});
    }
    auto code_bytes = static_cast<std::uint64_t>(profile.memory.code_bytes);
    plan.code_lines = (code_bytes + trace::kLineBytes - 1) / trace::kLineBytes;
    return plan;
}

/**
 * Append one walked region (base / stride / element count) to @p st at
 * unit granularity @p unit (a line or page size), or return false when
 * the pattern is outside the provable regime:
 *
 *  - the stride must tile the unit evenly in one direction (a multiple
 *    of it, giving one fill per element, or a divisor of it, giving
 *    unit/stride consecutive elements per fill) — anything else makes
 *    the elements-per-unit grouping uneven;
 *  - sub-unit strides additionally need a unit-aligned base, so the
 *    first unit gets a full group;
 *  - the region's first unit must differ from the previous region's
 *    last unit, because the walk's run collapsing spans the region
 *    boundary and would turn that first fill into a repeat hit.
 */
bool
appendRegion(Stream &st, std::uint64_t base, std::uint64_t stride,
             std::uint64_t elements, std::uint64_t unit)
{
    Segment seg;
    seg.tick0 = st.elems;
    seg.elems = elements;
    if (stride % unit == 0) {
        // Every element lands on its own unit.  No alignment needed:
        // floor((base + k*stride) / unit) is an exact arithmetic
        // progression whenever unit divides stride.
        seg.u0 = base / unit;
        seg.step = stride / unit;
        seg.rep = 1;
        seg.fills = elements;
    } else if (unit % stride == 0) {
        if (base % unit != 0)
            return false;
        std::uint64_t rep = unit / stride;
        seg.u0 = base / unit;
        seg.step = 1;
        seg.rep = rep;
        seg.fills = (elements + rep - 1) / rep;
    } else {
        return false;
    }
    if (!st.segments.empty()) {
        const Segment &prev = st.segments.back();
        if (prev.fills != 0 &&
            prev.u0 + (prev.fills - 1) * prev.step == seg.u0)
            return false; // the walk would collapse across the boundary
    }
    st.elems += elements;
    st.fills += seg.fills;
    st.segments.push_back(seg);
    return true;
}

/**
 * The fill-event stream a lower level observes: one event per upper-
 * level fill of @p a then @p b, re-anchored so that the LRU stamp
 * formulas count fills (the walk only ticks these structures on fills —
 * repeat hits never reach past the first level).
 */
std::vector<Segment>
fillStream(const Stream &a, const Stream &b)
{
    std::vector<Segment> out;
    std::uint64_t fills = 0;
    for (const Stream *st : {&a, &b}) {
        for (Segment seg : st->segments) {
            seg.rep = 1;
            seg.elems = seg.fills;
            seg.tick0 = fills;
            fills += seg.fills;
            out.push_back(seg);
        }
    }
    return out;
}

/**
 * Cold-fill victim schedule of a tree-PLRU set, derived by replaying
 * 2*assoc fills through the exact primitives: fill p < assoc takes the
 * invalid-suffix way p, later fills take the tree's victim.  After the
 * first assoc fills the schedule is periodic with period assoc — which
 * build() verifies rather than assumes (see verified()).
 */
struct PlruSchedule
{
    std::vector<std::uint32_t> way;   //!< Way of fill p, p < 2*assoc.
    std::vector<std::uint32_t> state; //!< Tree state after fill p.
    std::vector<std::uint32_t> pos;   //!< pos[w]: offset of way w in the period.

    void
    build(std::uint32_t assoc)
    {
        way.resize(2 * assoc);
        state.resize(2 * assoc);
        pos.assign(assoc, 0);
        std::uint32_t s = 0;
        for (std::uint32_t p = 0; p < 2 * assoc; ++p) {
            std::uint32_t w = p < assoc ? p : plruVictimWay(s, assoc);
            s = plruTouchState(s, assoc, w);
            way[p] = w;
            state[p] = s;
        }
        for (std::uint32_t q = 0; q < assoc; ++q)
            pos[way[assoc + q]] = q;
    }

    /**
     * True when the replay proves periodicity: fills assoc..2*assoc-1
     * visit every way exactly once, and the tree state returns to its
     * value after fill assoc-1 — so the victim sequence from fill
     * assoc onward repeats with period assoc forever (it is a pure
     * function of the state).
     */
    bool
    verified(std::uint32_t assoc) const
    {
        std::vector<bool> seen(assoc, false);
        for (std::uint32_t q = 0; q < assoc; ++q) {
            std::uint32_t w = way[assoc + q];
            if (w >= assoc || seen[w])
                return false;
            seen[w] = true;
        }
        return state[2 * assoc - 1] == state[assoc - 1];
    }

    /** Way of fill ordinal @p p (any p, via the verified period). */
    std::uint32_t
    wayOf(std::uint64_t p, std::uint32_t assoc) const
    {
        return p < assoc ? static_cast<std::uint32_t>(p)
                         : way[assoc + (p - assoc) % assoc];
    }
};

/**
 * Incremental (unit / S, unit % S) walker for unit = u0 + j * step:
 * replaces a division per fill with one add and one conditional
 * subtract, valid for any S (the non-power-of-two LLCs included).
 */
struct SetCursor
{
    std::uint64_t q, r, dq, dr, S;

    SetCursor(const Segment &seg, std::uint64_t sets)
        : q(seg.u0 / sets), r(seg.u0 % sets), dq(seg.step / sets),
          dr(seg.step % sets), S(sets)
    {
    }

    void
    advance()
    {
        q += dq;
        r += dr;
        if (r >= S) {
            r -= S;
            ++q;
        }
    }

    void
    retreat()
    {
        q -= dq;
        if (r < dr) {
            r += S;
            --q;
        }
        r -= dr;
    }

    /** Jump straight to fill ordinal @p j. */
    void
    seek(const Segment &seg, std::uint64_t j)
    {
        std::uint64_t unit = seg.u0 + j * seg.step;
        q = unit / S;
        r = unit % S;
    }
};

/**
 * Add the per-set fill counts of @p segments to @p count: every group
 * entry of a segment is its own progression, whose set sequence is
 * cyclic with period P = S / gcd(step, S); every reachable set takes
 * floor(fills / P) fills and the first (fills mod P) cycle positions
 * one more — O(min(fills, S)) per progression, no per-fill work.
 */
void
countFills(std::uint64_t S, const std::vector<Segment> &segments,
           std::vector<std::uint32_t> &count)
{
    for (const Segment &seg : segments) {
        if (seg.fills == 0)
            continue;
        std::uint64_t a = seg.step % S;
        std::uint64_t period = S / std::gcd(a, S); // gcd(0, S) == S
        std::uint64_t q = seg.fills / period;
        std::uint64_t rem = seg.fills % period;
        std::uint64_t n = std::min(seg.fills, period);
        for (std::uint64_t k = 0; k < seg.width(); ++k) {
            std::uint64_t s =
                (seg.u0 + (seg.group.empty() ? 0 : seg.group[k])) % S;
            for (std::uint64_t i = 0; i < n; ++i) {
                count[s] += static_cast<std::uint32_t>(q + (i < rem ? 1 : 0));
                s += a;
                if (s >= S)
                    s -= S;
            }
        }
    }
}

/** A line the prefetching walk fills into L2. */
struct L2Fill
{
    std::uint64_t unit;
    std::uint64_t tick; //!< L2 tick of the fill.
    bool prefetch;      //!< Filled by the prefetcher (bit set).
};

/**
 * Consecutive demands of one walked region, played @c reps times:
 * repetition r shifts every unit by r*du and every L2 tick by r*dt.
 * The vectors hold repetition 0 in walk order.
 */
struct Piece
{
    std::uint64_t j0 = 0;      //!< Demand index of the first demand.
    std::uint64_t demands = 0; //!< Demands per repetition.
    std::uint64_t reps = 1;
    std::uint64_t du = 0;
    std::uint64_t dt = 0;
    std::vector<std::uint64_t> demand_tick; //!< L2 tick of each demand.
    std::vector<L2Fill> fills;              //!< L2 fill order.
    std::vector<std::uint64_t> l3;          //!< L3 (= DRAM) order.
};

} // namespace

/**
 * One walked region of a prefetching prewarm: the demand lattice
 * x0 + j*d (j < demands) and its replay as pieces.  The code walk is a
 * region whose lines are never demanded again (demands == 0).
 */
struct RegionPlan
{
    std::uint64_t x0 = 0;
    std::uint64_t d = 1;
    std::uint64_t demands = 0;
    std::uint64_t lo = 0, hi = 0; //!< Every unit the region fills.
    std::vector<Piece> pieces;

    /** True when unit @p u is one of the region's demands; @p tick
     *  then receives that demand's L2 tick, its final LRU stamp. */
    bool
    demanded(std::uint64_t u, std::uint64_t &tick) const
    {
        if (u < x0 || (u - x0) % d != 0)
            return false;
        std::uint64_t j = (u - x0) / d;
        if (j >= demands)
            return false;
        for (const Piece &piece : pieces) {
            std::uint64_t span = piece.demands * piece.reps;
            if (j < piece.j0 || j - piece.j0 >= span)
                continue;
            std::uint64_t i = j - piece.j0;
            tick = piece.demand_tick[i % piece.demands] +
                   i / piece.demands * piece.dt;
            return true;
        }
        return false;
    }
};

namespace {

/**
 * Symbolic replay of the prewarm walk below L1 with the L2 prefetcher
 * on.  It runs a copy of the hierarchy's own engine (L2Prefetcher) on
 * each demand, with a sink that checks the proof and books the fill,
 * and mirrors only the demand path around it (accessCommon,
 * onL2DemandHit/Miss, issuePrefetch).  It keeps no cache arrays: L2
 * residency is the list of lines filled ahead of the current demand,
 * which is exact while the replay's proof holds —
 *
 *  - fills ascend within a region (a demand or prefetch target behind
 *    the fill frontier must still be resident);
 *  - the frontier never runs more than S_L2 lines ahead of the
 *    demand, so no line is evicted, and no LRU stamp is overtaken,
 *    before its last demand (round-robin victims survive the demand
 *    hits);
 *  - prefetch targets stay ahead of the demand inside the region, or
 *    land outside every region exactly once (a stride trained on the
 *    jump between one-line regions), and always below
 *    trace::kAddressLimit.
 *
 * Under those conditions every L3 probe is a first touch, so L3 is a
 * pure fill stream in the replay's L3 order.  Once the state relative
 * to the demand line (lines ahead with their bits, fill frontier,
 * stride slot, stream windows) repeats after p demands, the next
 * floor(left / p) periods are identical shifted copies and become one
 * repeated piece; the replay resumes for the tail.
 */
class PrefetchReplay
{
  public:
    /** Replay from @p start (a cold hierarchy's engine) over an L2 of
     *  @p l2_sets sets. */
    PrefetchReplay(const L2Prefetcher &start, std::uint64_t l2_sets)
        : engine(start), l2_sets_(l2_sets)
    {
    }

    /** Replay the demands x0 + j*d, j < demands; false when the walk
     *  leaves the proof. */
    bool region(std::uint64_t x0, std::uint64_t d, std::uint64_t demands);

    /** The code walk: @p lines instruction misses from @p u0 (no
     *  prefetch, never demanded again). */
    void code(std::uint64_t u0, std::uint64_t lines);

    std::vector<RegionPlan> plans;
    std::uint64_t tick = 0;        //!< L2 accesses.
    std::uint64_t misses = 0;      //!< Data demand misses in L2.
    std::uint64_t hits = 0;        //!< Data demand hits in L2.
    std::uint64_t pf_fills = 0;
    std::uint64_t useful = 0;
    std::uint64_t l3_fills = 0;    //!< L3 probes, every one a miss.
    std::uint64_t last_unit = 0;   //!< Unit of the last L2 access.
    std::vector<std::uint64_t> far; //!< Prefetches outside any region.
    /** Prefetch targets outside the address domain, which
     *  CacheHierarchy::issuePrefetch drops before touching any level. */
    std::uint64_t dropped = 0;

    /** The engine the walk would train.  The walk passes no pc, so
     *  only stride slot 0 moves. */
    L2Prefetcher engine;

  private:
    /** A line filled at or ahead of the current demand. */
    struct Ahead
    {
        std::uint64_t unit;
        std::uint8_t bit;
    };

    /** Counters and buffer sizes before one demand, plus its state
     *  signature relative to the demand line. */
    struct Mark
    {
        std::vector<std::uint64_t> sig;
        std::uint64_t j, tick, misses, hits, pf_fills, useful, l3_fills;
        std::size_t fills_at, l3_at, far_at;
    };

    /** Offsets from the demand line below this count as the region's
     *  own (relative) state; anything further belongs to another
     *  region and stays absolute. */
    static constexpr std::uint64_t kNear = 1ull << 24;
    static constexpr std::size_t kMaxPeriod = 16;
    static constexpr std::uint64_t kSearchDemands = 512;

    bool
    near(std::uint64_t v) const
    {
        return v - x_ + kNear < 2 * kNear;
    }

    void
    relative(std::vector<std::uint64_t> &sig, std::uint64_t v) const
    {
        sig.push_back(near(v) ? 0 : 1);
        sig.push_back(near(v) ? v - x_ : v);
    }

    Mark mark(std::uint64_t j, const Piece &cur);
    std::uint64_t repeat(const Mark &from, std::uint64_t j,
                         std::uint64_t demands, RegionPlan &plan,
                         Piece &cur);
    void demand(Piece &cur);
    void issue(std::uint64_t target, Piece &cur);
    void fill(std::uint64_t unit, bool prefetch, Piece &cur);
    Ahead *find(std::uint64_t unit);

    std::uint64_t l2_sets_;
    std::vector<Ahead> ahead_;
    std::size_t head_ = 0;
    std::uint64_t x_ = 0;
    std::uint64_t frontier_ = 0;
    bool filled_ = false;
    bool ok_ = true;
};

PrefetchReplay::Mark
PrefetchReplay::mark(std::uint64_t j, const Piece &cur)
{
    Mark m{{}, j, tick, misses, hits, pf_fills, useful, l3_fills,
           cur.fills.size(), cur.l3.size(), far.size()};
    m.sig.push_back(filled_ ? frontier_ - x_ : ~0ull);
    for (std::size_t i = head_; i < ahead_.size(); ++i) {
        m.sig.push_back(ahead_[i].unit - x_);
        m.sig.push_back(ahead_[i].bit);
    }
    if (!engine.stride_table.empty()) {
        const L2Prefetcher::StrideEntry &slot = engine.stride_table[0];
        m.sig.push_back(slot.valid);
        m.sig.push_back(static_cast<std::uint64_t>(slot.delta));
        m.sig.push_back(slot.confidence);
        relative(m.sig, slot.last_line);
    }
    for (const L2Prefetcher::StreamWindow &window : engine.windows) {
        m.sig.push_back(window.valid);
        relative(m.sig, window.last_line);
    }
    m.sig.push_back(engine.next);
    return m;
}

/**
 * The state before demand @p j equals @p from's, p = j - from.j demands
 * earlier, relative to the demand line.  The engines only compare and
 * add line numbers, so each of the next floor((demands - j) / p)
 * periods replays the last one shifted by p*d lines and its tick
 * count: close the head piece, append them as one repeated piece and
 * move the state past them.  Returns the demand index to resume at.
 */
std::uint64_t
PrefetchReplay::repeat(const Mark &from, std::uint64_t j,
                       std::uint64_t demands, RegionPlan &plan, Piece &cur)
{
    const std::uint64_t p = j - from.j;
    Piece body;
    body.j0 = j;
    body.demands = p;
    body.reps = (demands - j) / p;
    body.du = p * plan.d;
    body.dt = tick - from.tick;
    for (std::size_t i = cur.demand_tick.size() - p;
         i < cur.demand_tick.size(); ++i)
        body.demand_tick.push_back(cur.demand_tick[i] + body.dt);
    for (std::size_t i = from.fills_at; i < cur.fills.size(); ++i)
        body.fills.push_back({cur.fills[i].unit + body.du,
                              cur.fills[i].tick + body.dt,
                              cur.fills[i].prefetch});
    for (std::size_t i = from.l3_at; i < cur.l3.size(); ++i)
        body.l3.push_back(cur.l3[i] + body.du);

    const std::uint64_t reps = body.reps;
    tick += reps * body.dt;
    misses += reps * (misses - from.misses);
    hits += reps * (hits - from.hits);
    pf_fills += reps * (pf_fills - from.pf_fills);
    useful += reps * (useful - from.useful);
    l3_fills += reps * (l3_fills - from.l3_fills);
    const std::uint64_t by = reps * body.du;
    for (std::size_t i = head_; i < ahead_.size(); ++i)
        ahead_[i].unit += by;
    frontier_ += by;
    if (!engine.stride_table.empty() &&
        near(engine.stride_table[0].last_line))
        engine.stride_table[0].last_line += by;
    for (L2Prefetcher::StreamWindow &window : engine.windows)
        if (near(window.last_line))
            window.last_line += by;
    // The period ends with its last demand or that demand's fills.
    const std::uint64_t resume = j + reps * p;
    last_unit = !body.fills.empty() &&
                        body.fills.back().tick > body.demand_tick.back()
                    ? body.fills.back().unit + (reps - 1) * body.du
                    : plan.x0 + (resume - 1) * plan.d;

    plan.pieces.push_back(std::move(cur));
    plan.pieces.push_back(std::move(body));
    cur = Piece{};
    cur.j0 = resume;
    return resume;
}

PrefetchReplay::Ahead *
PrefetchReplay::find(std::uint64_t unit)
{
    auto it = std::lower_bound(
        ahead_.begin() + static_cast<std::ptrdiff_t>(head_), ahead_.end(),
        unit, [](const Ahead &a, std::uint64_t u) { return a.unit < u; });
    return it != ahead_.end() && it->unit == unit ? &*it : nullptr;
}

void
PrefetchReplay::fill(std::uint64_t unit, bool prefetch, Piece &cur)
{
    cur.fills.push_back({unit, tick, prefetch});
    last_unit = unit;
    if (near(unit)) {
        ahead_.push_back({unit, prefetch});
        frontier_ = unit;
        filled_ = true;
    }
    if (prefetch) {
        ++pf_fills;
        cur.l3.push_back(unit);
        ++l3_fills;
    }
}

void
PrefetchReplay::issue(std::uint64_t target, Piece &cur)
{
    // CacheHierarchy::issuePrefetch: a resident target costs nothing;
    // anything else is a first touch at L3 and an L2 fill with its
    // bit set.
    if (!near(target)) {
        // A stride trained on an inter-region jump reaches outside
        // every region: a one-off first touch, unless it repeats.
        if (std::find(far.begin(), far.end(), target) != far.end()) {
            ok_ = false;
            return;
        }
        far.push_back(target);
    } else if (target <= x_) {
        ok_ = false; // behind the demand
        return;
    } else if (filled_ && target <= frontier_) {
        if (find(target) == nullptr)
            ok_ = false; // a hole behind the frontier
        return;
    }
    ++tick;
    fill(target, true, cur);
}

void
PrefetchReplay::demand(Piece &cur)
{
    // CacheHierarchy::accessCommon below L1 for one data line.
    ++cur.demands;
    cur.demand_tick.push_back(++tick);
    last_unit = x_;
    Ahead *line = find(x_);
    bool was_prefetched = false;
    if (line != nullptr) {
        ++hits;
        was_prefetched = line->bit != 0;
        if (was_prefetched) {
            line->bit = 0;
            ++useful;
        }
    } else {
        if (filled_ && x_ <= frontier_) {
            ok_ = false; // a hole behind the frontier
            return;
        }
        ++misses;
        fill(x_, false, cur);
    }
    // The engine issues line addresses.  One outside the address
    // domain (a stride run past the last region, or wrapped below 0)
    // is dropped, as CacheHierarchy::issuePrefetch drops it.
    const std::uint64_t bytes = engine.line_bytes;
    engine.demand(x_ * bytes, 0, line != nullptr, was_prefetched,
                  [&](std::uint64_t target) {
                      if (target >= trace::kAddressLimit)
                          ++dropped;
                      else
                          issue(target / bytes, cur);
                  });
    if (line == nullptr) {
        // The demand probes L3 after its prefetches did.
        cur.l3.push_back(x_);
        ++l3_fills;
    }
    // A fill S_L2 lines ahead shares the set of the line just touched
    // and no other line ahead; any further and a line could be
    // evicted, or overtaken in LRU order, before its demand.
    if (frontier_ - x_ > l2_sets_)
        ok_ = false;
}

bool
PrefetchReplay::region(std::uint64_t x0, std::uint64_t d,
                       std::uint64_t demands)
{
    RegionPlan &plan = plans.emplace_back();
    plan.x0 = x0;
    plan.d = d;
    plan.demands = demands;
    ahead_.clear();
    head_ = 0;
    filled_ = false;

    std::vector<Mark> history; // the last kMaxPeriod marks, oldest first
    // A demand fills at most l2_sets_ lines ahead (see demand()), so
    // its first target past the address domain's limit lies within
    // 2 * l2_sets_ lines of it.  A region that ends closer to the limit
    // than that replays demand by demand, dropping exactly what the
    // walk drops; a repeated period of any other region drops nothing.
    bool searching = x0 + demands * d + 2 * l2_sets_ <
                     trace::kAddressLimit / engine.line_bytes;
    Piece cur;
    for (std::uint64_t j = 0; j < demands && ok_;) {
        x_ = x0 + j * d;
        // Lines behind the demand are never queried again.
        while (head_ < ahead_.size() && ahead_[head_].unit < x_)
            ++head_;
        if (head_ > 64 && head_ * 2 > ahead_.size()) {
            ahead_.erase(ahead_.begin(),
                         ahead_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        if (searching) {
            Mark now = mark(j, cur);
            auto same = std::find_if(
                history.rbegin(), history.rend(),
                [&now](const Mark &m) { return m.sig == now.sig; });
            if (same != history.rend()) {
                searching = false;
                // A period with far prefetches would not shift with
                // the demand line: keep replaying.
                if (same->far_at == far.size() &&
                    demands - j >= j - same->j) {
                    j = repeat(*same, j, demands, plan, cur);
                    continue;
                }
            } else {
                history.push_back(std::move(now));
                if (history.size() > kMaxPeriod)
                    history.erase(history.begin());
                searching = j < kSearchDemands;
            }
        }
        demand(cur);
        ++j;
    }
    if (!ok_)
        return false;
    if (cur.demands != 0)
        plan.pieces.push_back(std::move(cur));
    plan.lo = x0;
    plan.hi = frontier_;
    return true;
}

void
PrefetchReplay::code(std::uint64_t u0, std::uint64_t lines)
{
    if (lines == 0)
        return;
    RegionPlan &plan = plans.emplace_back();
    plan.x0 = u0;
    plan.lo = u0;
    plan.hi = u0 + lines - 1;
    Piece piece;
    piece.demands = 1;
    piece.reps = lines;
    piece.du = 1;
    piece.dt = 1;
    piece.demand_tick = {tick + 1};
    piece.fills = {{u0, tick + 1, false}};
    piece.l3 = {u0};
    plan.pieces.push_back(std::move(piece));
    tick += lines;
    l3_fills += lines;
    last_unit = plan.hi;
}

/**
 * The replay's L2 and L3 streams as grouped segments: one per piece,
 * element r = repetition r, group = the piece's fills (L2, with their
 * ticks, prefetch flags and region for the stamps) or its L3 order.
 */
void
replaySegments(const std::vector<RegionPlan> &plans,
               std::vector<Segment> &l2, std::vector<Segment> &l3)
{
    std::uint64_t l3_fills = 0;
    for (const RegionPlan &plan : plans) {
        for (const Piece &piece : plan.pieces) {
            if (!piece.fills.empty()) {
                Segment seg;
                seg.u0 = piece.fills.front().unit;
                for (const L2Fill &f : piece.fills)
                    seg.u0 = std::min(seg.u0, f.unit);
                for (const L2Fill &f : piece.fills) {
                    seg.group.push_back(f.unit - seg.u0);
                    seg.fill_tick.push_back(f.tick);
                    seg.prefetched.push_back(f.prefetch);
                }
                seg.step = piece.du;
                seg.fills = piece.reps;
                seg.tick_step = piece.dt;
                seg.elems = piece.reps * piece.fills.size();
                seg.region = plan.demands != 0 ? &plan : nullptr;
                l2.push_back(std::move(seg));
            }
            if (!piece.l3.empty()) {
                Segment seg;
                seg.u0 = *std::min_element(piece.l3.begin(), piece.l3.end());
                for (std::uint64_t u : piece.l3)
                    seg.group.push_back(u - seg.u0);
                seg.step = piece.du;
                seg.fills = piece.reps;
                seg.elems = piece.reps * piece.l3.size();
                seg.tick0 = l3_fills;
                l3_fills += seg.elems;
                l3.push_back(std::move(seg));
            }
        }
    }
}

} // namespace

const char *
PrewarmSolver::refusalName(Refusal reason)
{
    switch (reason) {
      case Refusal::None: return "none";
      case Refusal::Touched: return "touched";
      case Refusal::LineSize: return "line_size";
      case Refusal::PageSize: return "page_size";
      case Refusal::StrideShape: return "stride_shape";
      case Refusal::PlruPeriod: return "plru_period";
      case Refusal::PrefetchPolicy: return "prefetch_policy";
      case Refusal::PrefetchShape: return "prefetch_shape";
      case Refusal::TickRange: return "tick_range";
    }
    return "unknown";
}

std::uint64_t
PrewarmSolver::solveCache(Cache &cache,
                          const std::vector<Segment> &segments,
                          std::uint64_t accesses, std::uint64_t hits,
                          std::uint8_t *prefetch_bits)
{
    cache.accesses_ += accesses;
    cache.hits_ += hits;
    // The walk's only L1 hits repeat the line just filled, which the
    // predictor entry already names (Cache::repeatLastHit).
    const std::uint32_t parts = cache.way_pred_parts_;
    if (parts != 0)
        cache.way_pred_hits_ += hits;

    const std::uint64_t S = cache.num_sets_;
    const std::uint32_t assoc = cache.config_.associativity;
    const ReplacementPolicy policy = cache.config_.policy;

    std::uint64_t total_fills = 0;
    for (const Segment &seg : segments)
        total_fills += seg.fills * seg.width();
    if (total_fills == 0)
        return 0; // the walk would not have touched the arrays either

    // The walk ticks LRU structures once per access (fills, collapsed
    // repeat hits and demand hits); tree-PLRU never touches the tick
    // or the stamps.
    if (policy == ReplacementPolicy::Lru)
        cache.tick_ = accesses;

    PlruSchedule sched;
    if (policy == ReplacementPolicy::TreePlru)
        sched.build(assoc); // verified during the plan phase

    // A way's occupant is a pure function of its set's fill count, so
    // only the tail of the stream ever has to be visited.  Step 1:
    // closed-form per-set fill counts.
    std::vector<std::uint32_t> count(S, 0);
    countFills(S, segments, count);

    // Step 2: per-set summary state, plus the number of way writes the
    // reverse scan still owes.  Each touched set ends with
    // min(k, assoc) occupied ways for either policy (round-robin and
    // the verified PLRU period both cycle through all ways).  A
    // way-predicting cache also owes one entry per (set, partition)
    // that saw a fill.
    std::uint64_t remaining = 0;
    std::uint64_t open = 0;
    for (std::uint64_t set = 0; set < S; ++set) {
        std::uint64_t k = count[set];
        if (k == 0)
            continue;
        if (policy == ReplacementPolicy::TreePlru)
            cache.plru_[set] =
                k <= assoc ? sched.state[k - 1]
                           : sched.state[assoc + (k - assoc - 1) % assoc];
        remaining += std::min<std::uint64_t>(k, assoc);
        open += parts != 0;
    }

    // Step 3: scan fills newest-first, writing each way once.  The
    // current fill's in-set ordinal is one below the set's count of
    // not-yet-visited fills, and its way follows from that ordinal
    // (round-robin or PLRU schedule).  For LRU the last min(k, assoc)
    // ordinals map to distinct ways, so a per-set write counter
    // identifies survivors; tree-PLRU can
    // revisit a way within the last assoc fills (initial-to-periodic
    // crossover), so it keeps a per-set way bitmask (its assoc is
    // bounded at 32).  The first visit of a (set, partition) writes
    // its way-prediction entry: the newest fill of a set always
    // survives, so an MRU table is complete with the survivors, and
    // only a multi-MRU partition whose last fill was evicted keeps the
    // scan going (a set is settled once both partitions are written or
    // its fills are exhausted).  The scan stops the moment nothing is
    // owed — for dense streams that is the last capacity's worth of
    // fills, not the stream.  The first fill visited is the walk's
    // globally last, which pins last_index_ (repeatLastHit never moves
    // it).
    const bool plru = policy == ReplacementPolicy::TreePlru;
    const std::uint8_t settled_mask = parts == 2 ? 3 : 1;
    constexpr std::uint8_t kSettled = 4;
    std::vector<std::uint32_t> written(S, 0);
    std::vector<std::uint8_t> predicted(parts != 0 ? S : 0, 0);
    std::uint64_t bits_set = 0;
    bool last_fill = true;

    // One fill, newest first: element j, group entry e of @p seg, unit
    // q*S + r.  Returns true once nothing more is owed.  The plain
    // instantiation (ungrouped segment, no way prediction, no prefetch
    // bits) is the fill stream every prefetch-free level sees; it
    // compiles without the general case's branches.
    auto visit = [&](auto general, const Segment &seg, std::uint64_t j,
                     std::uint64_t e, std::uint64_t q, std::uint64_t r) {
        constexpr bool kGeneral = decltype(general)::value;
        std::uint32_t k = --count[r];
        std::uint32_t w;
        bool survives;
        if (plru) {
            w = sched.wayOf(k, assoc);
            std::uint32_t bit = 1u << w;
            survives = (written[r] & bit) == 0;
            written[r] |= bit;
        } else {
            survives = written[r] < assoc;
            ++written[r];
            // Round-robin ways skip the divide while a set has not
            // wrapped (every set of an LLC larger than the walk).
            w = k < assoc ? k : k % assoc;
        }
        if (survives) {
            std::size_t idx = static_cast<std::size_t>(r) * assoc + w;
            cache.tags_[idx] = static_cast<std::uint32_t>(q);
            std::uint64_t demand_tick = 0;
            bool demanded = kGeneral && seg.region != nullptr &&
                            seg.region->demanded(q * S + r, demand_tick);
            const std::uint64_t g = kGeneral ? seg.width() : 1;
            if (!plru) {
                if (kGeneral && !seg.fill_tick.empty()) {
                    // Prefetching L2: the last touch is the line's
                    // demand (hit or missing fill), else its prefetch
                    // fill.
                    cache.stamps_[idx] = static_cast<std::uint32_t>(
                        demanded ? demand_tick
                                 : seg.fill_tick[e] + j * seg.tick_step);
                } else if (g != 1) {
                    cache.stamps_[idx] =
                        static_cast<std::uint32_t>(seg.tick0 + j * g + e + 1);
                } else {
                    // The tick of the unit's last element (the
                    // collapsed repeat run re-stamps the just-filled
                    // way).
                    cache.stamps_[idx] = static_cast<std::uint32_t>(
                        seg.tick0 + std::min((j + 1) * seg.rep, seg.elems));
                }
            }
            if (kGeneral && prefetch_bits != nullptr && seg.prefetched[e] &&
                !demanded) {
                prefetch_bits[idx] = 1; // never consumed
                ++bits_set;
            }
            if (last_fill) {
                cache.last_index_ = idx;
                last_fill = false;
            }
            --remaining;
        }
        if (kGeneral && parts != 0 && (predicted[r] & kSettled) == 0) {
            std::uint8_t part = parts == 2 ? (q & 1) : 0;
            if ((predicted[r] & (1u << part)) == 0) {
                predicted[r] |= static_cast<std::uint8_t>(1u << part);
                cache.way_pred_[r * parts + part] = w;
            }
            if ((predicted[r] & settled_mask) == settled_mask ||
                count[r] == 0) {
                predicted[r] |= kSettled;
                --open;
            }
        }
        return remaining == 0 && open == 0;
    };

    for (std::size_t si = segments.size();
         si-- > 0 && (remaining != 0 || open != 0);) {
        const Segment &seg = segments[si];
        if (seg.fills == 0)
            continue;
        SetCursor cur(seg, S);
        cur.seek(seg, seg.fills - 1);
        if (seg.group.empty() && parts == 0 && prefetch_bits == nullptr) {
            for (std::uint64_t j = seg.fills; j-- > 0; cur.retreat())
                if (visit(std::false_type{}, seg, j, 0, cur.q, cur.r))
                    return bits_set;
            continue;
        }
        if (seg.group.empty()) {
            for (std::uint64_t j = seg.fills; j-- > 0; cur.retreat())
                if (visit(std::true_type{}, seg, j, 0, cur.q, cur.r))
                    return bits_set;
            continue;
        }
        for (std::uint64_t j = seg.fills; j-- > 0; cur.retreat()) {
            for (std::uint64_t e = seg.group.size(); e-- > 0;) {
                std::uint64_t off = seg.group[e];
                std::uint64_t q = cur.q + off / S;
                std::uint64_t r = cur.r + off % S;
                if (r >= S) {
                    r -= S;
                    ++q;
                }
                if (visit(std::true_type{}, seg, j, e, q, r))
                    return bits_set;
            }
        }
    }
    return bits_set;
}

bool
PrewarmSolver::apply(CacheHierarchy &caches, TlbHierarchy &tlbs,
                     const trace::WorkloadProfile &profile,
                     std::uint64_t llc_lines, Refusal *why)
{
    auto refuse = [why](Refusal reason) {
        if (why != nullptr)
            *why = reason;
        return false;
    };
    if (why != nullptr)
        *why = Refusal::None;

    // The closed forms describe a walk over a cold hierarchy; a touched
    // one (phased simulation from phase 2 on) takes the walking path.
    if (caches.l1i_stats_.accesses != 0 || caches.l1d_stats_.accesses != 0 ||
        !tlbs.untouched())
        return refuse(Refusal::Touched);

    // The walk streams one address through every level, keyed on the
    // L1 line (page): uniform unit sizes are what make each lower
    // level's fill stream equal the upper level's — a 128-byte L2 line
    // would see duplicate fills the segment model cannot express.
    const std::uint64_t line = trace::kLineBytes;
    const bool prefetching = caches.prefetcher_.degree != 0;
    const Cache *levels[] = {&caches.l1i_cache_, &caches.l1d_cache_,
                             &caches.l2_cache_, caches.l3_cache_.get()};
    for (const Cache *level : levels)
        if (level != nullptr && level->config_.line_bytes != line)
            return refuse(Refusal::LineSize);
    // A prefetching walk opens DRAM rows, replayed below per line.
    if (prefetching && caches.dram_ && caches.dram_->config().row_bytes < line)
        return refuse(Refusal::LineSize);

    const std::uint64_t dpage = tlbs.dtlb_.config_.line_bytes;
    const std::uint64_t ipage = tlbs.itlb_.config_.line_bytes;
    if (tlbs.l2tlb_ != nullptr &&
        (tlbs.l2tlb_->config_.line_bytes != dpage || ipage != dpage))
        return refuse(Refusal::PageSize);

    // With the prefetcher on, L2 sees demand hits: its stamps follow
    // the replay only under LRU (restamped by the hit), and a
    // predicting L2 or L3 would score those hits.
    if (prefetching &&
        (caches.l2_cache_.config_.policy != ReplacementPolicy::Lru ||
         caches.l2_cache_.config_.way_prediction != WayPredictionKind::None ||
         (caches.l3_cache_ && caches.l3_cache_->config_.way_prediction !=
                                  WayPredictionKind::None)))
        return refuse(Refusal::PrefetchPolicy);

    // Summarise the walk's reference streams as segments, bailing out
    // on any pattern outside the provable regime.
    const WalkPlan plan = walkPlan(profile, llc_lines);
    Stream d_lines, d_pages, i_lines, i_pages;
    for (const WalkRegion &region : plan.data) {
        if (region.stride == 0 ||
            !appendRegion(d_lines, region.base, region.stride,
                          region.elements, line) ||
            !appendRegion(d_pages, region.base, region.stride,
                          region.elements, dpage))
            return refuse(Refusal::StrideShape);
    }
    const std::uint64_t code_lines = plan.code_lines;
    if (code_lines != 0) {
        // The code walk is itself a region: stride one line over
        // code_lines elements.
        if (!appendRegion(i_lines, trace::kCodeBase, line, code_lines,
                          line) ||
            !appendRegion(i_pages, trace::kCodeBase, line, code_lines,
                          ipage))
            return refuse(Refusal::StrideShape);
    }

    const std::uint64_t data_elems = d_lines.elems;
    const std::uint64_t d_fills = d_lines.fills;
    const std::uint64_t dp_fills = d_pages.fills;
    const std::uint64_t i_fills = i_pages.fills;

    // Below L1: without a prefetcher every level sees the L1 fill
    // stream.  With one, the replay proves the L2 and L3 orders and
    // the demand schedule that fixes L2 stamps and prefetch bits.
    PrefetchReplay replay(caches.prefetcher_, caches.l2_cache_.num_sets_);
    std::vector<Segment> l2_stream, l3_stream;
    if (prefetching) {
        for (const Segment &seg : d_lines.segments)
            if (!replay.region(seg.u0, seg.step, seg.fills))
                return refuse(Refusal::PrefetchShape);
        replay.code(trace::kCodeBase / line, code_lines);
        // Every region must fill its own address range only, so no
        // line of one region is a hit (or a prefetch skip) in another.
        for (std::size_t a = 0; a < replay.plans.size(); ++a) {
            const RegionPlan &pa = replay.plans[a];
            for (std::size_t b = a + 1; b < replay.plans.size(); ++b)
                if (pa.lo <= replay.plans[b].hi && replay.plans[b].lo <= pa.hi)
                    return refuse(Refusal::PrefetchShape);
            for (std::uint64_t u : replay.far)
                if (pa.lo <= u && u <= pa.hi)
                    return refuse(Refusal::PrefetchShape);
        }
        replaySegments(replay.plans, l2_stream, l3_stream);
    } else {
        l2_stream = fillStream(d_lines, i_lines);
    }
    const std::vector<Segment> l2tlb_stream = fillStream(d_pages, i_pages);
    const std::uint64_t l2_misses = prefetching ? replay.misses : d_fills;
    const std::uint64_t l3_probes =
        prefetching ? replay.l3_fills : d_fills + code_lines;

    struct Target
    {
        Cache *cache;
        const std::vector<Segment> *segments;
        std::uint64_t accesses;
        std::uint64_t hits;
    };
    const Target targets[] = {
        {&caches.l1d_cache_, &d_lines.segments, data_elems,
         data_elems - d_fills},
        {&caches.l1i_cache_, &i_lines.segments, code_lines, 0},
        {&caches.l2_cache_, &l2_stream,
         prefetching ? replay.tick : d_fills + code_lines, replay.hits},
        {caches.l3_cache_.get(), prefetching ? &l3_stream : &l2_stream,
         l3_probes, 0},
        {&tlbs.dtlb_, &d_pages.segments, data_elems,
         data_elems - dp_fills},
        {&tlbs.itlb_, &i_pages.segments, code_lines,
         code_lines - i_fills},
        {tlbs.l2tlb_.get(), &l2tlb_stream, dp_fills + i_fills, 0},
    };

    // Plan phase: prove every structure before mutating any — the
    // fallback contract is all-or-nothing.
    for (const Target &target : targets) {
        if (target.cache == nullptr)
            continue;
        if (target.cache->config_.policy == ReplacementPolicy::TreePlru) {
            PlruSchedule sched;
            sched.build(target.cache->config_.associativity);
            if (!sched.verified(target.cache->config_.associativity))
                return refuse(Refusal::PlruPeriod);
        } else if (target.accesses > Cache::kMaxStamp) {
            // LRU: the closed forms write the walk's raw ticks, at most
            // one per access; past a 32-bit stamp only the walk, which
            // rebases, is exact.
            return refuse(Refusal::TickRange);
        }
    }

    std::uint64_t bits_set = 0;
    for (const Target &target : targets) {
        if (target.cache == nullptr)
            continue;
        bool l2 = target.cache == &caches.l2_cache_;
        std::uint64_t set = solveCache(
            *target.cache, *target.segments, target.accesses, target.hits,
            prefetching && l2 ? caches.l2_prefetch_bits_.data() : nullptr);
        if (l2)
            bits_set = set;
    }

    if (prefetching) {
        // The last L2 access may be a demand hit rather than a fill.
        Cache &l2 = caches.l2_cache_;
        std::uint64_t set = replay.last_unit % l2.num_sets_;
        std::uint64_t tag = replay.last_unit / l2.num_sets_;
        for (std::uint32_t w = 0; w < l2.config_.associativity; ++w)
            if (l2.tags_[set * l2.config_.associativity + w] == tag)
                l2.last_index_ = set * l2.config_.associativity + w;

        // Every prefetch is consumed, still pending in L2, or was
        // evicted unused.
        caches.prefetch_fills_ = replay.pf_fills;
        caches.prefetch_useful_ = replay.useful;
        caches.prefetch_evicted_unused_ =
            replay.pf_fills - replay.useful - bits_set;
        caches.prefetcher_ = replay.engine;
        CacheHierarchy::outOfDomainDrops().add(replay.dropped);

        // DRAM serves the L3 misses — every L3 probe — in L3 order.
        if (caches.dram_)
            for (const RegionPlan &plan : replay.plans)
                for (const Piece &piece : plan.pieces)
                    for (std::uint64_t r = 0; r < piece.reps; ++r)
                        for (std::uint64_t u : piece.l3)
                            caches.dram_->access((u + r * piece.du) * line);
    }

    // Hierarchy side counters and walk totals, exactly as the walk's
    // access helpers would have accumulated them.
    caches.l1d_stats_.accesses += data_elems;
    caches.l1d_stats_.misses += d_fills;
    caches.l2d_stats_.accesses += d_fills;
    caches.l2d_stats_.misses += l2_misses;
    caches.l1i_stats_.accesses += code_lines;
    caches.l1i_stats_.misses += code_lines;
    caches.l2i_stats_.accesses += code_lines;
    caches.l2i_stats_.misses += code_lines;
    caches.l3_stats_.accesses += l2_misses + code_lines;
    caches.l3_stats_.misses += l2_misses + code_lines;
    tlbs.l2tlb_misses_ += dp_fills + i_fills;
    tlbs.page_walks_ += dp_fills + i_fills;
    return true;
}

void
PrewarmSolver::walk(CacheHierarchy &caches, TlbHierarchy &tlbs,
                    const trace::WorkloadProfile &profile,
                    std::uint64_t llc_lines)
{
    const unsigned d_line_shift = static_cast<unsigned>(
        std::countr_zero(std::uint64_t{caches.dataLineBytes()}));
    const unsigned d_page_shift =
        static_cast<unsigned>(std::countr_zero(tlbs.dataPageBytes()));
    const unsigned i_page_shift =
        static_cast<unsigned>(std::countr_zero(tlbs.instrPageBytes()));
    std::uint64_t last_dline = ~0ull, last_dpage = ~0ull;
    std::uint64_t last_ipage = ~0ull;
    std::uint64_t drun = 0, dprun = 0, iprun = 0;

    auto flushRuns = [&] {
        if (drun) {
            caches.repeatDataHits(drun);
            drun = 0;
        }
        if (dprun) {
            tlbs.repeatDataHits(dprun);
            dprun = 0;
        }
        if (iprun) {
            tlbs.repeatInstrHits(iprun);
            iprun = 0;
        }
    };
    // Every kTickSpan steps (data elements, then code lines), flush the
    // open runs and keep the 32-bit stamps in range for the next span,
    // as the playback loop does per chunk.
    constexpr std::uint64_t kTickSpan = 4096;
    std::uint64_t steps = 0;
    auto reserveTicks = [&] {
        if (steps++ % kTickSpan != 0)
            return;
        flushRuns();
        caches.reserveTicks(kTickSpan);
        tlbs.reserveTicks(kTickSpan);
    };

    // On a never-touched hierarchy with the prefetcher off, every
    // distinct line of the walk is a guaranteed compulsory miss at
    // every level, which the cold fill path fills without touching
    // the DRAM model (a prefetch-free prewarm leaves every row
    // closed).  Prewarming an already-used hierarchy (or one with a
    // prefetcher) takes the general path.  The TLBs have no such
    // distinction: a translation that misses every level is a fill.
    const bool cold = caches.prewarmFillEligible();

    const WalkPlan plan = walkPlan(profile, llc_lines);
    for (const WalkRegion &region : plan.data) {
        // Sub-line strides re-probe the same line (and page) many
        // times in a row; collapse those guaranteed hits exactly, as
        // in the playback loop (see Cache::repeatLastHit).
        for (std::uint64_t e = 0; e < region.elements; ++e) {
            reserveTicks();
            std::uint64_t address = region.base + e * region.stride;
            std::uint64_t dline = address >> d_line_shift;
            if (dline == last_dline) {
                ++drun;
            } else {
                if (drun) {
                    caches.repeatDataHits(drun);
                    drun = 0;
                }
                if (cold)
                    caches.prewarmFillData(address);
                else
                    caches.accessData(address);
                last_dline = dline;
            }
            std::uint64_t dpage = address >> d_page_shift;
            if (dpage == last_dpage) {
                ++dprun;
            } else {
                if (dprun) {
                    tlbs.repeatDataHits(dprun);
                    dprun = 0;
                }
                tlbs.accessData(address);
                last_dpage = dpage;
            }
        }
    }
    flushRuns();

    // Code last.  The line walk touches a fresh I-line every step, but
    // the ITLB sees each page line_count-per-page times in a row.
    for (std::uint64_t l = 0; l < plan.code_lines; ++l) {
        reserveTicks();
        std::uint64_t pc = trace::kCodeBase + l * trace::kLineBytes;
        if (cold)
            caches.prewarmFillInstr(pc);
        else
            caches.accessInstr(pc);
        std::uint64_t ipage = pc >> i_page_shift;
        if (ipage == last_ipage) {
            ++iprun;
        } else {
            if (iprun) {
                tlbs.repeatInstrHits(iprun);
                iprun = 0;
            }
            tlbs.accessInstr(pc);
            last_ipage = ipage;
        }
    }
    flushRuns();
}

} // namespace uarch
} // namespace speclens
