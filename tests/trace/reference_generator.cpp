/**
 * @file
 * Reference trace generator: the double-compare record stream.
 */

#include "reference_generator.h"

#include <algorithm>

#include "stats/rng.h"
#include "trace/address_stream.h"

namespace speclens {
namespace trace {
namespace reference {

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

ReferenceGenerator::ReferenceGenerator(const WorkloadProfile &profile,
                                       std::uint64_t seed_salt)
    : profile_(profile),
      rng_(stats::combineSeeds(profile.seed(), seed_salt))
{
    const MemoryModel &memory = profile.memory;

    // Data regions: one per working set, weights normalised.
    double total_weight = 0.0;
    for (const WorkingSet &ws : memory.data)
        total_weight += ws.weight;
    double cumulative = 0.0;
    for (std::size_t i = 0; i < regions_.size(); ++i) {
        const WorkingSet &ws = memory.data[i];
        cumulative += ws.weight / total_weight;
        double elements = ws.bytes / ws.stride_bytes;
        regions_[i] = Region{
            kDataBase + i * kDataRegionStride,
            elements < 1.0 ? 1 : static_cast<std::uint64_t>(elements),
            static_cast<std::uint64_t>(ws.stride_bytes), cumulative,
            ws.sequential, 0};
    }
    regions_.back().cumulative_weight = 1.0;

    code_base_ = kCodeBase;
    code_size_ = static_cast<std::uint64_t>(memory.code_bytes);
    hot_size_ = static_cast<std::uint64_t>(memory.hot_code_bytes);
    locality_ = memory.code_locality;
    pc_ = kCodeBase;

    // Static branch population and its loop-structured sequence.
    const BranchModel &model = profile.branch;
    std::uint32_t n = model.static_branches;
    std::size_t sequence_length = std::max<std::size_t>(64, n / 4);
    std::vector<double> frequency(n, 0.0);
    for (std::size_t i = 0; i < sequence_length; ++i) {
        double u = rng_.uniform();
        auto id =
            static_cast<std::uint32_t>(u * u * static_cast<double>(n));
        if (id >= n)
            id = n - 1;
        sequence_.push_back(id);
        frequency[id] += 1.0 / static_cast<double>(sequence_length);
    }
    double cum_all = 0.0, cum_hard = 0.0, cum_patterned = 0.0;
    double cum_taken = 0.0;
    double hard_share = 1.0 - model.biased_fraction;
    for (std::uint32_t i = 0; i < n; ++i) {
        double p_i = frequency[i];
        cum_all += p_i;
        StaticBranch b{};
        bool hard = cum_hard + 0.5 * p_i < hard_share * cum_all;
        if (!hard) {
            bool taken_dir =
                cum_taken + 0.5 * p_i < model.taken_fraction * cum_all;
            if (taken_dir)
                cum_taken += p_i;
            b.taken_prob = taken_dir ? 0.995 : 0.005;
            b.patterned = false;
        } else {
            cum_hard += p_i;
            bool patterned = cum_patterned + 0.5 * p_i <
                             model.patterned_fraction * cum_hard;
            if (patterned) {
                cum_patterned += p_i;
                b.patterned = true;
                b.period = static_cast<std::uint8_t>(2 + rng_.below(7));
                b.pattern =
                    static_cast<std::uint16_t>(rng_.next() & 0xffff);
                std::uint16_t mask =
                    static_cast<std::uint16_t>((1u << b.period) - 1);
                if ((b.pattern & mask) == 0 || (b.pattern & mask) == mask)
                    b.pattern ^= 0x5555;
                b.position =
                    static_cast<std::uint32_t>(rng_.below(b.period));
                int taken_bits = 0;
                for (unsigned bit = 0; bit < b.period; ++bit)
                    taken_bits += (b.pattern >> bit) & 1u;
                cum_taken += p_i * static_cast<double>(taken_bits) /
                             static_cast<double>(b.period);
            } else {
                double centre = std::clamp(model.taken_fraction, 0.35,
                                           0.65);
                b.taken_prob = std::clamp(
                    centre + (-0.2 + 0.4 * rng_.uniform()), 0.3, 0.7);
                b.patterned = false;
                cum_taken += p_i * b.taken_prob;
            }
        }
        branches_.push_back(b);
    }

    // Cumulative op-class thresholds (5 % of the remainder is Other).
    const InstructionMix &mix = profile.mix;
    p_load_ = mix.load;
    p_store_ = p_load_ + mix.store;
    p_branch_ = p_store_ + mix.branch;
    p_fp_ = p_branch_ + mix.fp;
    p_simd_ = p_fp_ + mix.simd;
    p_other_ = p_simd_ + mix.remainder() * 0.05;
}

std::uint64_t
ReferenceGenerator::dataAddress()
{
    double u = rng_.uniform();
    Region *region = &regions_.back();
    for (Region &r : regions_) {
        if (u < r.cumulative_weight) {
            region = &r;
            break;
        }
    }
    if (rng_.bernoulli(region->sequential)) {
        std::uint64_t span = region->elements * region->stride;
        std::uint64_t address = region->base + region->cursor;
        region->cursor = (region->cursor + 8) % span;
        return address;
    }
    return region->base + rng_.below(region->elements) * region->stride;
}

void
ReferenceGenerator::takeBranch()
{
    std::uint64_t span = rng_.bernoulli(locality_) ? hot_size_ : code_size_;
    std::uint64_t slots = span / 4;
    pc_ = code_base_ + rng_.below(slots ? slots : 1) * 4;
}

bool
ReferenceGenerator::branchOutcome(std::uint32_t &id)
{
    if (rng_.bernoulli(0.005))
        position_ = static_cast<std::size_t>(rng_.below(sequence_.size()));
    id = sequence_[position_];
    position_ = (position_ + 1) % sequence_.size();
    StaticBranch &b = branches_[id];
    bool taken = b.patterned
                     ? ((b.pattern >> ((step_ + b.position) % b.period)) &
                        1u) != 0
                     : rng_.bernoulli(b.taken_prob);
    ++step_;
    return taken;
}

Instruction
ReferenceGenerator::next()
{
    Instruction inst;
    inst.pc = pc_;
    pc_ += 4;
    if (pc_ >= code_base_ + code_size_)
        pc_ = code_base_;
    inst.kernel = rng_.bernoulli(profile_.exec.kernel_fraction);

    double u = rng_.uniform();
    if (u < p_load_) {
        inst.op = OpClass::Load;
        inst.address = dataAddress();
    } else if (u < p_store_) {
        inst.op = OpClass::Store;
        inst.address = dataAddress();
    } else if (u < p_branch_) {
        inst.op = OpClass::Branch;
        inst.taken = branchOutcome(inst.branch_id);
        if (inst.taken)
            takeBranch();
    } else if (u < p_fp_) {
        inst.op = OpClass::FpAlu;
    } else if (u < p_simd_) {
        inst.op = OpClass::Simd;
    } else if (u < p_other_) {
        inst.op = OpClass::Other;
    } else {
        inst.op = OpClass::IntAlu;
    }
    return inst;
}

} // namespace reference
} // namespace trace
} // namespace speclens
