/**
 * @file
 * Machine description helpers.
 */

#include "machine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "stats/rng.h"

namespace speclens {
namespace uarch {

namespace {

std::string
num(double v)
{
    std::ostringstream out;
    out << v;
    return out.str();
}

/** Appends violations of one lint family at one machine location. */
struct Reporter
{
    std::vector<verify::Violation> &out;
    const char *family;

    void
    operator()(std::string location, const char *invariant,
               std::string detail) const
    {
        out.push_back({family, invariant, std::move(location),
                       std::move(detail)});
    }
};

void
checkTlb(const Reporter &fail, const TlbConfig &tlb)
{
    const std::string loc = "tlbs." + tlb.name;
    if (tlb.entries == 0) {
        fail(loc, "entries", "TLB has zero entries");
        return;
    }
    if (tlb.associativity == 0 || tlb.associativity > tlb.entries)
        fail(loc, "associativity",
             "associativity " + std::to_string(tlb.associativity) +
                 " is outside [1, entries=" +
                 std::to_string(tlb.entries) + "]");
    else if (tlb.entries % tlb.associativity != 0)
        fail(loc, "associativity",
             "entries " + std::to_string(tlb.entries) +
                 " are not a multiple of associativity " +
                 std::to_string(tlb.associativity));
    if (!std::has_single_bit(tlb.page_bytes) || tlb.page_bytes < 4096)
        fail(loc, "page-size",
             "page size " + std::to_string(tlb.page_bytes) +
                 " is not a power of two >= 4096");
}

} // namespace

std::vector<verify::Violation>
checkMachineConfig(const MachineConfig &machine)
{
    std::vector<verify::Violation> out;
    const CacheHierarchyConfig &c = machine.caches;
    const std::vector<const CacheConfig *> levels = {
        &c.l1i, &c.l1d, &c.l2, c.l3 ? &*c.l3 : nullptr};

    const Reporter monotonic{out, "cache-monotonic"};
    if (c.l2.size_bytes < c.l1d.size_bytes ||
        c.l2.size_bytes < c.l1i.size_bytes)
        monotonic("caches.l2", "capacity-order",
                  "L2 (" + num(double(c.l2.size_bytes)) +
                      " bytes) is smaller than an L1");
    if (c.l3 && c.l3->size_bytes <= c.l2.size_bytes)
        monotonic("caches.l3", "capacity-order",
                  "L3 (" + num(double(c.l3->size_bytes)) +
                      " bytes) is not larger than L2 (" +
                      num(double(c.l2.size_bytes)) + " bytes)");
    for (const CacheConfig *cache : levels)
        if (cache && cache->line_bytes != c.l1d.line_bytes)
            monotonic("caches." + cache->name, "line-size",
                      "line size " + std::to_string(cache->line_bytes) +
                          " differs from L1D's " +
                          std::to_string(c.l1d.line_bytes));
    const LatencyModel &lat = machine.latencies;
    if (!(lat.l2_hit_cycles > 0.0 &&
          lat.l3_hit_cycles > lat.l2_hit_cycles &&
          lat.memory_cycles > lat.l3_hit_cycles))
        monotonic("latencies", "latency-order",
                  "visible latencies must increase with depth: L2 " +
                      num(lat.l2_hit_cycles) + ", L3 " +
                      num(lat.l3_hit_cycles) + ", memory " +
                      num(lat.memory_cycles));
    if (!(lat.mispredict_penalty > 0.0 && lat.icache_l2_penalty > 0.0 &&
          lat.l2tlb_hit_cycles > 0.0 &&
          lat.page_walk_cycles > lat.l2tlb_hit_cycles))
        monotonic("latencies", "penalties",
                  "front-end and TLB penalties must be positive and a "
                  "page walk must cost more than an L2 TLB hit");

    // The [16, 256] line bound is a machine-level rule: the shared
    // geometry check also serves TLBs, whose "line" is a page.
    for (const CacheConfig *cache : levels) {
        if (!cache)
            continue;
        const std::string loc = "caches." + cache->name;
        if (!std::has_single_bit(cache->line_bytes) ||
            cache->line_bytes < 16 || cache->line_bytes > 256) {
            out.push_back({"cache-geometry", "line-size", loc,
                           "line size " +
                               std::to_string(cache->line_bytes) +
                               " is not a power of two in [16, 256]"});
            continue;
        }
        for (verify::Violation &v : cache->checkGeometry()) {
            v.location = loc;
            out.push_back(std::move(v));
        }
    }

    const Reporter tlb{out, "tlb-config"};
    const TlbHierarchyConfig &t = machine.tlbs;
    checkTlb(tlb, t.itlb);
    checkTlb(tlb, t.dtlb);
    if (t.l2tlb) {
        checkTlb(tlb, *t.l2tlb);
        const std::string loc = "tlbs." + t.l2tlb->name;
        if (t.l2tlb->entries < t.itlb.entries ||
            t.l2tlb->entries < t.dtlb.entries)
            tlb(loc, "l2tlb-reach",
                "second-level TLB (" + std::to_string(t.l2tlb->entries) +
                    " entries) is smaller than a first-level TLB");
        if (t.l2tlb->page_bytes != t.itlb.page_bytes ||
            t.l2tlb->page_bytes != t.dtlb.page_bytes)
            tlb(loc, "page-agreement",
                "page size differs between TLB levels");
    }

    const Reporter config{out, "machine-config"};
    if (machine.short_name.empty() || machine.name.empty())
        config("", "name", "machine has an empty name");
    if (!(machine.frequency_ghz >= 0.5 && machine.frequency_ghz <= 6.0))
        config("frequency_ghz", "clock",
               "clock of " + num(machine.frequency_ghz) +
                   " GHz is outside the plausible [0.5, 6] range");
    if (machine.predictor_size_log2 < 8 || machine.predictor_size_log2 > 20)
        config("predictor_size_log2", "predictor-size",
               "predictor table of 2^" +
                   std::to_string(machine.predictor_size_log2) +
                   " entries is outside [2^8, 2^20]");
    const PowerModelConfig &p = machine.power;
    if (!(p.core_static_watts > 0.0 && p.energy_per_instruction_nj > 0.0 &&
          p.llc_static_watts > 0.0 && p.dram_static_watts > 0.0 &&
          p.llc_access_energy_nj > 0.0 && p.dram_access_energy_nj > 0.0))
        config("power", "power-coefficients",
               "static power and per-event energies must be positive");
    if (!(std::fabs(p.frequency_ghz - machine.frequency_ghz) <= 1e-9))
        config("power.frequency_ghz", "power-clock",
               "power-model clock (" + num(p.frequency_ghz) +
                   " GHz) disagrees with the machine clock (" +
                   num(machine.frequency_ghz) + " GHz)");
    if (c.dram)
        for (verify::Violation &v : c.dram->checkGeometry()) {
            v.location = "caches.dram";
            out.push_back(std::move(v));
        }
    return out;
}

void
validateMachineConfig(const MachineConfig &machine)
{
    std::vector<verify::Violation> found = checkMachineConfig(machine);
    if (!found.empty())
        throw std::invalid_argument("machine " + machine.short_name + ": " +
                                    verify::renderViolation(found.front()));
}

std::string
isaName(Isa isa)
{
    switch (isa) {
      case Isa::X86: return "x86";
      case Isa::Sparc: return "SPARC";
    }
    return "unknown";
}

void
WorkloadTransform::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("transform");
    fp.f64(memory_mix_scale);
    fp.f64(branch_mix_scale);
    fp.f64(code_scale);
    fp.f64(mix_jitter);
}

void
MachineConfig::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("machine");
    fp.str(name);
    fp.str(short_name);
    fp.u64(static_cast<std::uint64_t>(isa));
    fp.f64(frequency_ghz);
    caches.hashInto(fp);
    tlbs.hashInto(fp);
    fp.u64(static_cast<std::uint64_t>(predictor));
    fp.u64(predictor_size_log2);
    latencies.hashInto(fp);
    power.hashInto(fp);
    transform.hashInto(fp);
}

std::uint64_t
MachineConfig::fingerprint() const
{
    stats::Fingerprinter fp;
    hashInto(fp);
    return fp.value();
}

trace::WorkloadProfile
transformForMachine(const trace::WorkloadProfile &profile,
                    const MachineConfig &machine)
{
    trace::WorkloadProfile out = profile;
    const WorkloadTransform &t = machine.transform;

    stats::Rng jitter(stats::combineSeeds(profile.seed(),
                                          stats::hashName(machine.name)));
    auto jittered = [&jitter, &t](double value) {
        double factor = 1.0 + jitter.gaussian(0.0, t.mix_jitter);
        return value * std::clamp(factor, 0.8, 1.2);
    };

    out.mix.load = jittered(profile.mix.load * t.memory_mix_scale);
    out.mix.store = jittered(profile.mix.store * t.memory_mix_scale);
    out.mix.branch = jittered(profile.mix.branch * t.branch_mix_scale);
    out.mix.fp = jittered(profile.mix.fp);
    out.mix.simd = jittered(profile.mix.simd);

    // Renormalise if the scaled mix overshoots the unit budget.
    double sum = out.mix.load + out.mix.store + out.mix.branch +
                 out.mix.fp + out.mix.simd;
    if (sum > 0.95) {
        double shrink = 0.95 / sum;
        out.mix.load *= shrink;
        out.mix.store *= shrink;
        out.mix.branch *= shrink;
        out.mix.fp *= shrink;
        out.mix.simd *= shrink;
    }

    out.memory.code_bytes =
        std::max(64.0, profile.memory.code_bytes * t.code_scale *
                           std::clamp(1.0 + jitter.gaussian(0.0, 0.05),
                                      0.8, 1.2));
    out.memory.hot_code_bytes =
        std::min(out.memory.hot_code_bytes, out.memory.code_bytes);

    return out;
}

} // namespace uarch
} // namespace speclens
