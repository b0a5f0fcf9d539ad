/**
 * @file
 * Naive scalar reference model implementation.
 */

#include "reference_model.h"

#include <algorithm>
#include <cstdint>
#include <variant>

#include "trace/address_stream.h"
#include "trace/trace_generator.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/prewarm.h"
#include "uarch/tlb.h"

namespace speclens {
namespace reference {

namespace {

/** Structure-side event totals so far, as a PerfCounters record. */
uarch::PerfCounters
structureTotals(const uarch::CacheHierarchy &caches,
                const uarch::TlbHierarchy &tlbs)
{
    uarch::PerfCounters t;
    t.l1d_accesses = caches.l1d().accesses;
    t.l1d_misses = caches.l1d().misses;
    t.l1i_accesses = caches.l1i().accesses;
    t.l1i_misses = caches.l1i().misses;
    t.l2d_accesses = caches.l2d().accesses;
    t.l2d_misses = caches.l2d().misses;
    t.l2i_accesses = caches.l2i().accesses;
    t.l2i_misses = caches.l2i().misses;
    t.l3_accesses = caches.l3().accesses;
    t.l3_misses = caches.l3().misses;
    t.dtlb_accesses = tlbs.dtlbAccesses();
    t.dtlb_misses = tlbs.dtlbMisses();
    t.itlb_accesses = tlbs.itlbAccesses();
    t.itlb_misses = tlbs.itlbMisses();
    t.l2tlb_misses = tlbs.l2tlbMisses();
    t.page_walks = tlbs.pageWalks();
    t.prefetch_fills = caches.prefetchFills();
    t.prefetch_useful = caches.prefetchUseful();
    t.prefetch_evicted_unused = caches.prefetchEvictedUnused();
    t.way_pred_hits = caches.wayPredHits();
    t.way_pred_mispredicts = caches.wayPredMispredicts();
    t.dram_accesses = caches.dramAccesses();
    t.dram_row_hits = caches.dramRowHits();
    t.dram_busy_cycles = caches.dramBusyCycles();
    t.dram_budget_cycles = caches.dramBudgetCycles();
    return t;
}

/** Structure-side fields of @p end minus those of @p start. */
uarch::PerfCounters
structureDelta(const uarch::PerfCounters &start,
               const uarch::PerfCounters &end)
{
    uarch::PerfCounters d;
    d.l1d_accesses = end.l1d_accesses - start.l1d_accesses;
    d.l1d_misses = end.l1d_misses - start.l1d_misses;
    d.l1i_accesses = end.l1i_accesses - start.l1i_accesses;
    d.l1i_misses = end.l1i_misses - start.l1i_misses;
    d.l2d_accesses = end.l2d_accesses - start.l2d_accesses;
    d.l2d_misses = end.l2d_misses - start.l2d_misses;
    d.l2i_accesses = end.l2i_accesses - start.l2i_accesses;
    d.l2i_misses = end.l2i_misses - start.l2i_misses;
    d.l3_accesses = end.l3_accesses - start.l3_accesses;
    d.l3_misses = end.l3_misses - start.l3_misses;
    d.dtlb_accesses = end.dtlb_accesses - start.dtlb_accesses;
    d.dtlb_misses = end.dtlb_misses - start.dtlb_misses;
    d.itlb_accesses = end.itlb_accesses - start.itlb_accesses;
    d.itlb_misses = end.itlb_misses - start.itlb_misses;
    d.l2tlb_misses = end.l2tlb_misses - start.l2tlb_misses;
    d.page_walks = end.page_walks - start.page_walks;
    d.prefetch_fills = end.prefetch_fills - start.prefetch_fills;
    d.prefetch_useful = end.prefetch_useful - start.prefetch_useful;
    d.prefetch_evicted_unused =
        end.prefetch_evicted_unused - start.prefetch_evicted_unused;
    d.way_pred_hits = end.way_pred_hits - start.way_pred_hits;
    d.way_pred_mispredicts =
        end.way_pred_mispredicts - start.way_pred_mispredicts;
    d.dram_accesses = end.dram_accesses - start.dram_accesses;
    d.dram_row_hits = end.dram_row_hits - start.dram_row_hits;
    d.dram_busy_cycles = end.dram_busy_cycles - start.dram_busy_cycles;
    d.dram_budget_cycles = end.dram_budget_cycles - start.dram_budget_cycles;
    return d;
}

/** One machine's structures, driven one record at a time. */
class Machine
{
  public:
    explicit Machine(const uarch::MachineConfig &config)
        : config_(config),
          caches_(config.caches),
          tlbs_(config.tlbs),
          predictor_(uarch::makePredictorVariant(config.predictor,
                                                 config.predictor_size_log2))
    {
    }

    /**
     * Measure one window of @p profile: walking prewarm (when
     * enabled), @p warmup uncounted records, the prefetch retire, then
     * @p instructions counted records.
     */
    uarch::SimulationResult
    measure(const trace::WorkloadProfile &profile, std::uint64_t warmup,
            std::uint64_t instructions, const uarch::SimulationConfig &config)
    {
        if (config.prewarm) {
            const uarch::CacheConfig &llc =
                config_.caches.l3 ? *config_.caches.l3 : config_.caches.l2;
            uarch::PrewarmSolver::walk(caches_, tlbs_, profile,
                                       llc.size_bytes / trace::kLineBytes);
        }

        trace::TraceGenerator generator(profile, config.seed_salt);
        for (std::uint64_t i = 0; i < warmup; ++i)
            step(generator.next());
        caches_.retireUnusedPrefetches();

        uarch::SimulationResult result;
        uarch::PerfCounters &c = result.counters;
        const uarch::PerfCounters start = structureTotals(caches_, tlbs_);
        for (std::uint64_t i = 0; i < instructions; ++i) {
            const trace::Instruction inst = generator.next();
            const bool mispredicted = step(inst);
            ++c.instructions;
            c.kernel_instructions += inst.kernel ? 1 : 0;
            c.loads += inst.isLoad() ? 1 : 0;
            c.stores += inst.isStore() ? 1 : 0;
            c.fp_ops += inst.isFloat() ? 1 : 0;
            c.simd_ops += inst.isSimd() ? 1 : 0;
            c.branches += inst.isBranch() ? 1 : 0;
            c.taken_branches += inst.isBranch() && inst.taken ? 1 : 0;
            c.branch_mispredictions += mispredicted ? 1 : 0;
        }
        c += structureDelta(start, structureTotals(caches_, tlbs_));

        result.cpi_stack = uarch::computeCpiStack(c, config_.latencies,
                                                  profile.exec);
        result.power = uarch::computePower(c, result.cpi_stack.total(),
                                           config_.power);
        return result;
    }

  private:
    /**
     * Apply one record: instruction fetch, branch resolution, data
     * access.  @return true when a branch mispredicted.
     */
    bool
    step(const trace::Instruction &inst)
    {
        caches_.accessInstr(inst.pc);
        tlbs_.accessInstr(inst.pc);
        bool mispredicted = false;
        if (inst.isBranch()) {
            std::visit(
                [&](auto &predictor) {
                    mispredicted =
                        predictor.predict(inst.pc, inst.branch_id) !=
                        inst.taken;
                    predictor.update(inst.pc, inst.branch_id, inst.taken);
                },
                predictor_);
        }
        if (inst.isMemory()) {
            caches_.accessData(inst.address, inst.pc);
            tlbs_.accessData(inst.address);
        }
        return mispredicted;
    }

    const uarch::MachineConfig &config_;
    uarch::CacheHierarchy caches_;
    uarch::TlbHierarchy tlbs_;
    uarch::PredictorVariant predictor_;
};

trace::WorkloadProfile
effective(const trace::WorkloadProfile &profile,
          const uarch::MachineConfig &machine,
          const uarch::SimulationConfig &config)
{
    return config.apply_machine_transform
               ? uarch::transformForMachine(profile, machine)
               : profile;
}

} // namespace

uarch::SimulationResult
simulate(const trace::WorkloadProfile &profile,
         const uarch::MachineConfig &machine,
         const uarch::SimulationConfig &config)
{
    Machine m(machine);
    return m.measure(effective(profile, machine, config), config.warmup,
                     config.instructions, config);
}

uarch::PhasedSimulationResult
simulatePhased(const trace::PhasedWorkload &workload,
               const uarch::MachineConfig &machine,
               const uarch::SimulationConfig &config)
{
    workload.validate();
    Machine m(machine);
    uarch::PhasedSimulationResult result;
    for (const trace::Phase &phase : workload.phases) {
        auto share = [&phase](std::uint64_t total) {
            return std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       phase.weight * static_cast<double>(total)));
        };
        uarch::SimulationResult r =
            m.measure(effective(phase.profile, machine, config),
                      share(config.warmup), share(config.instructions),
                      config);
        result.combined_counters += r.counters;
        result.combined_cpi += phase.weight * r.cpi();
        result.per_phase.push_back(r);
    }
    return result;
}

} // namespace reference
} // namespace speclens
