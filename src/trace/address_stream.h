/**
 * @file
 * Synthetic data-address generation from a working-set mixture model.
 *
 * Every data access picks one of the profile's working sets (hot / warm
 * / cold) with probability proportional to its weight, then either
 * advances a sequential cursor through the set (spatial locality) or
 * touches a uniformly random cache line in it (temporal-reuse-limited
 * behaviour).  Under an LRU cache of capacity C lines, a set of L > C
 * lines accessed uniformly misses at rate ~ (L - C) / L, so footprints
 * relative to the simulated machine's cache sizes directly control the
 * per-machine MPKI — the machine-dependence at the heart of the paper's
 * multi-machine methodology.
 */

#ifndef SPECLENS_TRACE_ADDRESS_STREAM_H
#define SPECLENS_TRACE_ADDRESS_STREAM_H

#include <array>
#include <cstdint>

#include "stats/rng.h"
#include "trace/workload_profile.h"

namespace speclens {
namespace trace {

/** Cache line size assumed throughout the toolkit (bytes). */
constexpr std::uint64_t kLineBytes = 64;

/** Page size assumed throughout the toolkit (bytes). */
constexpr std::uint64_t kPageBytes = 4096;

/**
 * Disjoint virtual-address layout.  Data regions (one per working set)
 * are placed 256 GiB apart so footprints of any modelled size never
 * alias across regions, and the code segment never collides with data.
 * Exposed so the simulation driver can pre-warm the same addresses the
 * stream will touch.
 */
constexpr std::uint64_t kDataRegionStride = 1ull << 38;
constexpr std::uint64_t kDataBase = 1ull << 40;
constexpr std::uint64_t kCodeBase = 1ull << 22;

/** Data working sets this layout holds, one region each. */
constexpr std::uint64_t kDataRegions = 4;
static_assert(std::tuple_size_v<decltype(MemoryModel::data)> == kDataRegions);

/**
 * The address domain: every address a simulated structure sees is
 * below this limit.  The generator stays inside it by construction —
 * checkWorkloadProfile() bounds each working set by the region stride
 * and the code footprint by the gap up to the data, which
 * uarch::transformForMachine() keeps — and the L2 prefetcher drops any
 * target at or past it.  So a line address is
 * below kAddressLimit >> line_shift, and checkMachineConfig() admits
 * only geometries whose tags then fit the caches' 32-bit tag words.
 */
constexpr std::uint64_t kAddressLimit = 1ull << 41;

static_assert(kDataBase + kDataRegions * kDataRegionStride <= kAddressLimit,
              "the last data region must end inside the address domain");
static_assert(kCodeBase < kDataBase,
              "the code segment must end below the first data region");

/** Generator of data-side effective addresses. */
class DataAddressStream
{
  public:
    /**
     * @param model Working-set mixture to sample from.
     * @param rng Generator owned by the caller; the stream consumes a
     *            bounded number of draws per next() call.
     */
    explicit DataAddressStream(const MemoryModel &model);

    /** Produce the next effective address (inline below; hot path). */
    std::uint64_t next(stats::Rng &rng);

  private:
    struct Region
    {
        std::uint64_t base;        //!< First byte of the region.
        std::uint64_t elements;    //!< Addressable elements in the set.
        std::uint64_t stride;      //!< Bytes between elements.
        std::uint64_t band_cut;    //!< Rng::cut of the band's upper edge.
        std::uint64_t sequential_cut; //!< Rng::cut of P(streaming access).
        std::uint64_t cursor = 0;  //!< Sequential element cursor.
    };

    std::array<Region, kDataRegions> regions_;
};

/**
 * Generator of instruction-fetch addresses.
 *
 * Maintains a program counter that advances linearly and is redirected
 * by taken branches: with probability MemoryModel::code_locality the
 * target stays inside the hot code region (a loop nest), otherwise it
 * lands uniformly in the full code footprint.  Benchmarks with large
 * footprints and low locality (perlbench, gcc) therefore show the
 * highest I-cache/I-TLB miss activity, matching Section IV-E.
 */
class CodeAddressStream
{
  public:
    explicit CodeAddressStream(const MemoryModel &model);

    /** Address of the next sequential instruction (PC += 4). */
    std::uint64_t nextPc();

    /** Redirect the PC because a branch resolved taken. */
    void takeBranch(stats::Rng &rng);

  private:
    std::uint64_t base_;        //!< Code region start.
    std::uint64_t size_;        //!< Code footprint (bytes).
    std::uint64_t hot_size_;    //!< Hot region (bytes).
    std::uint64_t locality_cut_; //!< Rng::cut of P(target in hot region).
    std::uint64_t pc_;          //!< Current fetch address.
};

// ---------------------------------------------------------------------
// Hot-path definitions.  One data address per load/store and one fetch
// address per instruction, so these must inline into the generator's
// batch fill loop.  Every change here must preserve the RNG draw
// sequence and the produced addresses exactly — the streams are part
// of the bit-identical reproducibility contract; probabilities are
// compared as integer cuts (stats::Rng::cut), which give the same
// answer as the double compares for every draw.

inline std::uint64_t
DataAddressStream::next(stats::Rng &rng)
{
    std::uint64_t u = rng.draw();
    Region *region = &regions_.back();
    for (Region &r : regions_) {
        if (u < r.band_cut) {
            region = &r;
            break;
        }
    }

    if (rng.drawBelow(region->sequential_cut)) {
        // Stream through the set in word-sized steps so consecutive
        // accesses share cache lines (spatial locality): 8 accesses per
        // line before the stream pays a miss on a large set.
        std::uint64_t span = region->elements * region->stride;
        std::uint64_t address = region->base + region->cursor;
        // cursor < span on entry, so wrapping is rare: pay the 64-bit
        // modulo only then, not on every access.  The stored value is
        // exactly (cursor + 8) % span either way.
        std::uint64_t advanced = region->cursor + 8;
        region->cursor = advanced >= span ? advanced % span : advanced;
        return address;
    }
    std::uint64_t element = rng.below(region->elements);
    // Offset within the element is irrelevant to any simulator here;
    // use the element base for clarity.
    return region->base + element * region->stride;
}

inline std::uint64_t
CodeAddressStream::nextPc()
{
    std::uint64_t fetched = pc_;
    pc_ += 4;
    // Fall off the end of the code segment: wrap to the start, modelling
    // the outermost loop.
    if (pc_ >= base_ + size_)
        pc_ = base_;
    return fetched;
}

inline void
CodeAddressStream::takeBranch(stats::Rng &rng)
{
    std::uint64_t span = rng.drawBelow(locality_cut_) ? hot_size_ : size_;
    // Branch targets are 4-byte aligned within the selected span.
    std::uint64_t slots = span / 4;
    pc_ = base_ + rng.below(slots ? slots : 1) * 4;
}

} // namespace trace
} // namespace speclens

#endif // SPECLENS_TRACE_ADDRESS_STREAM_H
