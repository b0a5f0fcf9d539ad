/**
 * @file
 * Bandwidth-limited DRAM / row-buffer model behind the last cache
 * level.
 *
 * A request that misses every cache level is serviced by one of a set
 * of independent DRAM banks, each holding one open row (open-page
 * policy).  A request to the open row costs only the burst transfer;
 * any other row pays an activate (precharge + row open) on top.  The
 * model is functional like the caches — it accumulates cycle counters
 * instead of stalling anything — and feeds two memory-centric metrics:
 *
 *  - row_buffer_hit_rate: row hits / accesses, the paper-style
 *    locality measure;
 *  - dram_bw_utilization: busy cycles / budget cycles, where the
 *    budget grants cycles_per_burst_budget cycles per access (the
 *    channel's sustainable issue rate).  A ratio above 1 means the
 *    access stream demands more bandwidth than the channel provides.
 */

#ifndef SPECLENS_UARCH_DRAM_MODEL_H
#define SPECLENS_UARCH_DRAM_MODEL_H

#include <cstdint>
#include <vector>

#include "stats/fingerprint.h"
#include "verify/violation.h"

namespace speclens {
namespace verify {
class StateAuditor;
}
namespace uarch {

/** Geometry and timing of the DRAM channel. */
struct DramConfig
{
    std::uint32_t banks = 16;      //!< Independent banks (power of two).
    std::uint32_t row_bytes = 8192;//!< Row-buffer size (power of two).
    std::uint32_t burst_cycles = 4;    //!< Transfer cost, row already open.
    std::uint32_t activate_cycles = 24;//!< Precharge + activate on a miss.

    /**
     * Cycles the channel grants per access: the budget against which
     * busy cycles are measured.  Every access adds this many cycles to
     * the budget, so utilization = busy / budget is scale-free.
     */
    std::uint32_t cycles_per_burst_budget = 6;

    /**
     * Busy cycles of @p accesses requests of which @p row_hits found
     * their row open: a burst per hit, an activate plus a burst per
     * miss (open-page policy).  Requires row_hits <= accesses.
     */
    std::uint64_t
    busyCycles(std::uint64_t accesses, std::uint64_t row_hits) const
    {
        return row_hits * burst_cycles +
               (accesses - row_hits) *
                   (std::uint64_t(activate_cycles) + burst_cycles);
    }

    /** Cycles the channel grants @p accesses requests. */
    std::uint64_t
    budgetCycles(std::uint64_t accesses) const
    {
        return accesses * cycles_per_burst_budget;
    }

    /** Geometry violations (power-of-two banks and rows, positive
     *  cycle costs), family "machine-config". */
    std::vector<verify::Violation> checkGeometry() const;

    /** @throws std::invalid_argument naming the first violation. */
    void validate() const;

    /** Feed every field, in declaration order, to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** Functional banked row-buffer model. */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &config);

    /** Service one memory request for @p address. */
    void
    access(std::uint64_t address)
    {
        ++accesses_;
        budget_cycles_ += config_.cycles_per_burst_budget;
        std::uint64_t row_addr = address >> row_shift_;
        std::uint64_t bank = row_addr & bank_mask_;
        std::uint64_t row = row_addr >> bank_shift_;
        if (row_open_[bank] && open_row_[bank] == row) {
            ++row_hits_;
            busy_cycles_ += config_.burst_cycles;
        } else {
            busy_cycles_ +=
                config_.activate_cycles + config_.burst_cycles;
            open_row_[bank] = row;
            row_open_[bank] = 1;
        }
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t rowHits() const { return row_hits_; }
    std::uint64_t busyCycles() const { return busy_cycles_; }
    std::uint64_t budgetCycles() const { return budget_cycles_; }

    const DramConfig &config() const { return config_; }

  private:
    DramConfig config_;
    std::uint32_t row_shift_;  //!< log2(row_bytes).
    std::uint32_t bank_shift_; //!< log2(banks).
    std::uint64_t bank_mask_;  //!< banks - 1.

    std::vector<std::uint64_t> open_row_; //!< Open row per bank.
    std::vector<std::uint8_t> row_open_;  //!< 1 when the bank has one.

    std::uint64_t accesses_ = 0;
    std::uint64_t row_hits_ = 0;
    std::uint64_t busy_cycles_ = 0;
    std::uint64_t budget_cycles_ = 0;

    /** The invariant prover reads the bank state (src/verify). */
    friend class verify::StateAuditor;
};

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_DRAM_MODEL_H
