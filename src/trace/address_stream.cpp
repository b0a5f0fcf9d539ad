/**
 * @file
 * Address stream implementations.
 */

#include "address_stream.h"

#include <cmath>

namespace speclens {
namespace trace {

namespace {

std::uint64_t
elementCount(double bytes, double stride)
{
    double elements = bytes / stride;
    return elements < 1.0 ? 1 : static_cast<std::uint64_t>(elements);
}

} // namespace

DataAddressStream::DataAddressStream(const MemoryModel &model)
    : regions_{}
{
    double total_weight = 0.0;
    for (const WorkingSet &ws : model.data)
        total_weight += ws.weight;

    double cumulative = 0.0;
    for (std::size_t i = 0; i < regions_.size(); ++i) {
        const WorkingSet &ws = model.data[i];
        cumulative += ws.weight / total_weight;
        regions_[i] = Region{kDataBase + i * kDataRegionStride,
                             elementCount(ws.bytes, ws.stride_bytes),
                             static_cast<std::uint64_t>(ws.stride_bytes),
                             stats::Rng::cut(cumulative),
                             stats::Rng::cut(ws.sequential), 0};
    }
    // Guard against floating-point shortfall in the last band.
    regions_.back().band_cut = stats::Rng::cut(1.0);
}

CodeAddressStream::CodeAddressStream(const MemoryModel &model)
    : base_(kCodeBase),
      size_(static_cast<std::uint64_t>(model.code_bytes)),
      hot_size_(static_cast<std::uint64_t>(model.hot_code_bytes)),
      locality_cut_(stats::Rng::cut(model.code_locality)),
      pc_(kCodeBase)
{
}

} // namespace trace
} // namespace speclens
