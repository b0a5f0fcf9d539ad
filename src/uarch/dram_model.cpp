/**
 * @file
 * DRAM row-buffer model implementation.
 */

#include "dram_model.h"

#include <bit>
#include <stdexcept>

namespace speclens {
namespace uarch {

std::vector<verify::Violation>
DramConfig::checkGeometry() const
{
    std::vector<verify::Violation> out;
    auto fail = [&out](const char *invariant, const char *detail) {
        out.push_back({"machine-config", invariant, "", detail});
    };
    if (!std::has_single_bit(banks))
        fail("dram-banks", "DRAM bank count not a power of two");
    if (!std::has_single_bit(row_bytes))
        fail("dram-row", "DRAM row size not a power of two");
    if (burst_cycles == 0 || activate_cycles == 0 ||
        cycles_per_burst_budget == 0)
        fail("dram-cycles", "DRAM cycle costs must be positive");
    return out;
}

void
DramConfig::validate() const
{
    std::vector<verify::Violation> found = checkGeometry();
    if (!found.empty())
        throw std::invalid_argument(found.front().detail);
}

void
DramConfig::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("dram");
    fp.u64(banks);
    fp.u64(row_bytes);
    fp.u64(burst_cycles);
    fp.u64(activate_cycles);
    fp.u64(cycles_per_burst_budget);
}

DramModel::DramModel(const DramConfig &config)
    : config_(config),
      row_shift_(static_cast<std::uint32_t>(std::countr_zero(
          static_cast<std::uint64_t>(config.row_bytes)))),
      bank_shift_(static_cast<std::uint32_t>(std::countr_zero(
          static_cast<std::uint64_t>(config.banks)))),
      bank_mask_(config.banks - 1)
{
    config_.validate();
    open_row_.assign(config_.banks, 0);
    row_open_.assign(config_.banks, 0);
}

} // namespace uarch
} // namespace speclens
