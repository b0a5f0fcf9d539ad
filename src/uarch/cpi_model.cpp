/**
 * @file
 * CPI stack computation.
 */

#include "cpi_model.h"

namespace speclens {
namespace uarch {

void
LatencyModel::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("latency");
    fp.f64(l2_hit_cycles);
    fp.f64(l3_hit_cycles);
    fp.f64(memory_cycles);
    fp.f64(mispredict_penalty);
    fp.f64(icache_l2_penalty);
    fp.f64(l2tlb_hit_cycles);
    fp.f64(page_walk_cycles);
}

double
CpiStack::total() const
{
    return base + dependency + frontend_icache + frontend_branch +
           backend_l2 + backend_l3 + backend_memory + backend_tlb;
}

double
CpiStack::frontendFraction() const
{
    double t = total();
    return t > 0.0 ? (frontend_icache + frontend_branch) / t : 0.0;
}

double
CpiStack::backendFraction() const
{
    double t = total();
    return t > 0.0
               ? (backend_l2 + backend_l3 + backend_memory + backend_tlb) / t
               : 0.0;
}

std::vector<std::string>
CpiStack::componentNames()
{
    std::vector<std::string> names;
    for (const auto &field : kCpiStackFields)
        names.emplace_back(field.name);
    return names;
}

std::vector<double>
CpiStack::components() const
{
    std::vector<double> values;
    for (const auto &field : kCpiStackFields)
        values.push_back(this->*field.member);
    return values;
}

CpiStack
computeCpiStack(const PerfCounters &counters, const LatencyModel &latencies,
                const trace::ExecutionModel &exec)
{
    CpiStack stack;
    if (counters.instructions == 0)
        return stack;

    double instructions = static_cast<double>(counters.instructions);
    auto per_inst = [instructions](std::uint64_t events, double cycles) {
        return static_cast<double>(events) * cycles / instructions;
    };

    stack.base = exec.base_cpi;
    stack.dependency = exec.dependency_cpi;

    // Front-end: instruction-side misses are serialised (no overlap in
    // the fetch stream).  L1I misses serviced by L2 pay the short
    // bubble; deeper instruction misses pay the data-path latencies.
    std::uint64_t l1i_to_l2 = counters.l1i_misses - counters.l2i_misses;
    stack.frontend_icache = per_inst(l1i_to_l2, latencies.icache_l2_penalty)
                          + per_inst(counters.l2i_misses,
                                     latencies.l3_hit_cycles);
    stack.frontend_branch = per_inst(counters.branch_mispredictions,
                                     latencies.mispredict_penalty);

    // Back-end: data-side misses per service level, divided by the
    // workload's memory-level parallelism (overlapping misses).
    double mlp = exec.mlp;
    std::uint64_t l2_service = counters.l1d_misses - counters.l2d_misses;
    // Split L3 outcomes between instruction- and data-side streams in
    // proportion to their L2 miss contributions.
    std::uint64_t l3_in = counters.l2d_misses + counters.l2i_misses;
    double data_share =
        l3_in > 0 ? static_cast<double>(counters.l2d_misses) /
                        static_cast<double>(l3_in)
                  : 0.0;
    double l3_data_misses = static_cast<double>(counters.l3_misses) *
                            data_share;
    double l3_data_hits = static_cast<double>(counters.l2d_misses) -
                          l3_data_misses;
    if (l3_data_hits < 0.0)
        l3_data_hits = 0.0;

    stack.backend_l2 = per_inst(l2_service, latencies.l2_hit_cycles) / mlp;
    stack.backend_l3 = l3_data_hits * latencies.l3_hit_cycles /
                       instructions / mlp;
    stack.backend_memory = l3_data_misses * latencies.memory_cycles /
                           instructions / mlp;

    // TLB: L1 TLB misses that hit the L2 TLB pay the short refill;
    // full walks pay the walk latency.  Walks overlap poorly, so no
    // MLP division.
    std::uint64_t l1tlb_misses = counters.dtlb_misses +
                                 counters.itlb_misses;
    std::uint64_t l2tlb_hits = l1tlb_misses > counters.l2tlb_misses
                                   ? l1tlb_misses - counters.l2tlb_misses
                                   : 0;
    stack.backend_tlb = per_inst(l2tlb_hits, latencies.l2tlb_hit_cycles) +
                        per_inst(counters.page_walks,
                                 latencies.page_walk_cycles);

    return stack;
}

} // namespace uarch
} // namespace speclens
