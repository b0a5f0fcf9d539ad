/**
 * @file
 * Table IV machine configurations.
 *
 * Geometries follow the published table; predictors, latencies and
 * power coefficients are set to generation-appropriate values (a 2008
 * Harpertown Xeon gets a gshare-class predictor and no L3; Skylake
 * gets a TAGE-class predictor and a large second-level TLB).
 */

#include "machines.h"

#include <stdexcept>

namespace speclens {
namespace suites {

namespace {

using uarch::CacheConfig;
using uarch::Isa;
using uarch::MachineConfig;
using uarch::PredictorKind;
using uarch::ReplacementPolicy;
using uarch::TlbConfig;

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

MachineConfig
skylakeI76700()
{
    MachineConfig m;
    m.name = "Intel Core i7-6700";
    m.short_name = "skylake";
    m.isa = Isa::X86;
    m.frequency_ghz = 3.4;

    m.caches.l1i = {"L1I", 32 * kKiB, 8, 64, ReplacementPolicy::TreePlru};
    m.caches.l1d = {"L1D", 32 * kKiB, 8, 64, ReplacementPolicy::TreePlru};
    m.caches.l2 = {"L2", 256 * kKiB, 4, 64, ReplacementPolicy::Lru};
    m.caches.l3 = CacheConfig{"L3", 8 * kMiB, 16, 64,
                              ReplacementPolicy::Lru};

    m.tlbs.itlb = TlbConfig{"ITLB", 128, 8, 4096};
    m.tlbs.dtlb = TlbConfig{"DTLB", 64, 4, 4096};
    m.tlbs.l2tlb = TlbConfig{"STLB", 1536, 12, 4096};

    m.predictor = PredictorKind::TageLite;
    m.predictor_size_log2 = 12;

    m.latencies = {4.0, 22.0, 140.0, 15.0, 8.0, 5.0, 38.0};

    m.power.frequency_ghz = m.frequency_ghz;
    m.power.core_static_watts = 4.0;
    m.power.energy_per_instruction_nj = 0.45;

    m.transform = {1.0, 1.0, 1.0, 0.015};
    return m;
}

MachineConfig
broadwellE52650()
{
    MachineConfig m;
    m.name = "Intel Xeon E5-2650 v4";
    m.short_name = "broadwell";
    m.isa = Isa::X86;
    m.frequency_ghz = 2.2;

    m.caches.l1i = {"L1I", 32 * kKiB, 8, 64, ReplacementPolicy::TreePlru};
    m.caches.l1d = {"L1D", 32 * kKiB, 8, 64, ReplacementPolicy::TreePlru};
    m.caches.l2 = {"L2", 256 * kKiB, 8, 64, ReplacementPolicy::Lru};
    m.caches.l3 = CacheConfig{"L3", 30 * kMiB, 20, 64,
                              ReplacementPolicy::Lru};

    m.tlbs.itlb = TlbConfig{"ITLB", 128, 8, 4096};
    m.tlbs.dtlb = TlbConfig{"DTLB", 64, 4, 4096};
    m.tlbs.l2tlb = TlbConfig{"STLB", 1024, 8, 4096};

    m.predictor = PredictorKind::TageLite;
    m.predictor_size_log2 = 11;

    m.latencies = {4.0, 26.0, 150.0, 15.0, 8.0, 5.0, 42.0};

    m.power.frequency_ghz = m.frequency_ghz;
    m.power.core_static_watts = 5.0;
    m.power.energy_per_instruction_nj = 0.50;

    m.transform = {1.0, 1.0, 1.02, 0.02};
    return m;
}

MachineConfig
ivybridgeE52430()
{
    MachineConfig m;
    m.name = "Intel Xeon E5-2430 v2";
    m.short_name = "ivybridge";
    m.isa = Isa::X86;
    m.frequency_ghz = 2.5;

    m.caches.l1i = {"L1I", 32 * kKiB, 8, 64, ReplacementPolicy::TreePlru};
    m.caches.l1d = {"L1D", 32 * kKiB, 8, 64, ReplacementPolicy::TreePlru};
    m.caches.l2 = {"L2", 256 * kKiB, 8, 64, ReplacementPolicy::Lru};
    m.caches.l3 = CacheConfig{"L3", 15 * kMiB, 20, 64,
                              ReplacementPolicy::Lru};

    m.tlbs.itlb = TlbConfig{"ITLB", 128, 4, 4096};
    m.tlbs.dtlb = TlbConfig{"DTLB", 64, 4, 4096};
    m.tlbs.l2tlb = TlbConfig{"STLB", 512, 4, 4096};

    m.predictor = PredictorKind::Tournament;
    m.predictor_size_log2 = 13;

    m.latencies = {4.0, 24.0, 150.0, 14.0, 8.0, 5.0, 42.0};

    m.power.frequency_ghz = m.frequency_ghz;
    m.power.core_static_watts = 5.0;
    m.power.energy_per_instruction_nj = 0.55;

    m.transform = {1.0, 1.0, 1.02, 0.02};
    return m;
}

MachineConfig
harpertownE5405()
{
    MachineConfig m;
    m.name = "Intel Xeon E5405";
    m.short_name = "harpertown";
    m.isa = Isa::X86;
    m.frequency_ghz = 2.0;

    // Core2-era: big shared L2, no L3.
    m.caches.l1i = {"L1I", 32 * kKiB, 8, 64, ReplacementPolicy::Lru};
    m.caches.l1d = {"L1D", 32 * kKiB, 8, 64, ReplacementPolicy::Lru};
    m.caches.l2 = {"L2", 6 * kMiB, 24, 64, ReplacementPolicy::Lru};
    m.caches.l3.reset();

    m.tlbs.itlb = TlbConfig{"ITLB", 128, 4, 4096};
    m.tlbs.dtlb = TlbConfig{"DTLB", 256, 4, 4096};
    m.tlbs.l2tlb.reset(); // no second-level TLB

    m.predictor = PredictorKind::Gshare;
    m.predictor_size_log2 = 12;

    m.latencies = {6.0, 8.0, 180.0, 12.0, 10.0, 6.0, 65.0};

    m.power.frequency_ghz = m.frequency_ghz;
    m.power.core_static_watts = 8.0;
    m.power.energy_per_instruction_nj = 0.80;

    m.transform = {1.0, 1.0, 1.05, 0.025};
    return m;
}

MachineConfig
sparcIvPlus()
{
    MachineConfig m;
    m.name = "SPARC-IV+ v490";
    m.short_name = "sparc-iv";
    m.isa = Isa::Sparc;
    m.frequency_ghz = 2.1;

    m.caches.l1i = {"L1I", 64 * kKiB, 4, 64, ReplacementPolicy::Lru};
    m.caches.l1d = {"L1D", 64 * kKiB, 4, 64, ReplacementPolicy::Lru};
    m.caches.l2 = {"L2", 2 * kMiB, 4, 64, ReplacementPolicy::Lru};
    m.caches.l3 = CacheConfig{"L3", 32 * kMiB, 4, 64,
                              ReplacementPolicy::Lru};

    m.tlbs.itlb = TlbConfig{"ITLB", 64, 64, 8192};   // fully associative
    m.tlbs.dtlb = TlbConfig{"DTLB", 64, 64, 8192};   // fully associative
    m.tlbs.l2tlb = TlbConfig{"L2TLB", 1024, 2, 8192};

    m.predictor = PredictorKind::Gshare;
    m.predictor_size_log2 = 14;

    m.latencies = {6.0, 45.0, 200.0, 13.0, 10.0, 8.0, 70.0};

    m.power.frequency_ghz = m.frequency_ghz;
    m.power.core_static_watts = 12.0;
    m.power.energy_per_instruction_nj = 0.95;

    // RISC load/store ISA and a different compiler stack.
    m.transform = {0.90, 1.06, 1.20, 0.03};
    return m;
}

MachineConfig
sparcT4()
{
    MachineConfig m;
    m.name = "SPARC T4";
    m.short_name = "sparc-t4";
    m.isa = Isa::Sparc;
    m.frequency_ghz = 2.85;

    m.caches.l1i = {"L1I", 16 * kKiB, 4, 64, ReplacementPolicy::Lru};
    m.caches.l1d = {"L1D", 16 * kKiB, 4, 64, ReplacementPolicy::Lru};
    m.caches.l2 = {"L2", 128 * kKiB, 8, 64, ReplacementPolicy::Lru};
    m.caches.l3 = CacheConfig{"L3", 4 * kMiB, 16, 64,
                              ReplacementPolicy::Lru};

    m.tlbs.itlb = TlbConfig{"ITLB", 64, 64, 8192};
    m.tlbs.dtlb = TlbConfig{"DTLB", 128, 128, 8192};
    m.tlbs.l2tlb.reset(); // hardware tablewalk on L1 TLB miss

    m.predictor = PredictorKind::Tournament;
    m.predictor_size_log2 = 11;

    m.latencies = {5.0, 18.0, 170.0, 13.0, 7.0, 5.0, 50.0};

    m.power.frequency_ghz = m.frequency_ghz;
    m.power.core_static_watts = 7.0;
    m.power.energy_per_instruction_nj = 0.70;

    m.transform = {0.90, 1.06, 1.20, 0.03};
    return m;
}

MachineConfig
opteron2435()
{
    MachineConfig m;
    m.name = "AMD Opteron 2435";
    m.short_name = "opteron";
    m.isa = Isa::X86;
    m.frequency_ghz = 2.6;

    m.caches.l1i = {"L1I", 64 * kKiB, 2, 64, ReplacementPolicy::Lru};
    m.caches.l1d = {"L1D", 64 * kKiB, 2, 64, ReplacementPolicy::Lru};
    m.caches.l2 = {"L2", 512 * kKiB, 16, 64, ReplacementPolicy::Lru};
    m.caches.l3 = CacheConfig{"L3", 6 * kMiB, 48, 64,
                              ReplacementPolicy::Lru};

    m.tlbs.itlb = TlbConfig{"ITLB", 32, 32, 4096};   // fully associative
    m.tlbs.dtlb = TlbConfig{"DTLB", 48, 48, 4096};   // fully associative
    m.tlbs.l2tlb = TlbConfig{"L2TLB", 512, 4, 4096};

    m.predictor = PredictorKind::Tournament;
    m.predictor_size_log2 = 12;

    m.latencies = {5.0, 22.0, 170.0, 13.0, 9.0, 6.0, 55.0};

    m.power.frequency_ghz = m.frequency_ghz;
    m.power.core_static_watts = 9.0;
    m.power.energy_per_instruction_nj = 0.85;

    // Same ISA, different micro-architecture and compiler tuning.
    m.transform = {1.0, 1.0, 1.05, 0.025};
    return m;
}

} // namespace

const std::vector<uarch::MachineConfig> &
profilingMachines()
{
    static const std::vector<MachineConfig> machines = {
        skylakeI76700(), broadwellE52650(), ivybridgeE52430(),
        harpertownE5405(), sparcIvPlus(),   sparcT4(),
        opteron2435(),
    };
    return machines;
}

const uarch::MachineConfig &
skylakeMachine()
{
    return profilingMachines().front();
}

const std::vector<uarch::MachineConfig> &
sensitivityMachines()
{
    const auto &all = profilingMachines();
    // Spread across generations and ISAs: Skylake, Harpertown,
    // SPARC T4 and Opteron give the widest structural contrast.
    static const std::vector<MachineConfig> machines = {all[0], all[3],
                                                        all[5], all[6]};
    return machines;
}

const std::vector<uarch::MachineConfig> &
memoryCentricMachines()
{
    using uarch::PrefetcherKind;
    using uarch::WayPredictionKind;

    // All variants share the Skylake geometry so every metric delta
    // between them is attributable to the memory-centric features.
    auto variant = [](const char *name, const char *short_name,
                      PrefetcherKind kind, unsigned degree) {
        MachineConfig m = skylakeI76700();
        m.name = name;
        m.short_name = short_name;
        m.caches.prefetcher = kind;
        m.caches.l2_prefetch_degree = degree;
        m.caches.dram = uarch::DramConfig{};
        m.caches.l1d.way_prediction = WayPredictionKind::Mru;
        m.caches.l1i.way_prediction = WayPredictionKind::MultiMru;
        return m;
    };

    static const std::vector<MachineConfig> machines = {
        // Prefetcher off: the DRAM/way-prediction baseline the three
        // engines are measured against.
        variant("Skylake + DRAM model", "skylake-dram",
                PrefetcherKind::NextLine, 0),
        variant("Skylake + next-line prefetch", "skylake-nl",
                PrefetcherKind::NextLine, 4),
        variant("Skylake + stride prefetch", "skylake-stride",
                PrefetcherKind::Stride, 4),
        variant("Skylake + stream prefetch", "skylake-stream",
                PrefetcherKind::Stream, 4),
    };
    return machines;
}

uarch::MachineConfig
prefetchAblationMachine()
{
    MachineConfig m = skylakeMachine();
    m.caches.l2_prefetch_degree = 4;
    return m;
}

const uarch::MachineConfig &
machineByShortName(const std::string &name)
{
    for (const MachineConfig &m : profilingMachines())
        if (m.short_name == name)
            return m;
    throw std::out_of_range("machineByShortName: unknown machine " + name);
}

} // namespace suites
} // namespace speclens
