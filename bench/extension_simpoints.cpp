/**
 * @file
 * Extension bench: SimPoint-style within-benchmark reduction on phased
 * workloads — the related-work technique (paper refs [32], [33]) that
 * complements the paper's across-benchmark subsetting.
 *
 * For several multi-phase workloads (derived deterministically from
 * CPU2017 base models), the bench compares:
 *  - the full phased run (ground truth),
 *  - the representative-phase estimate (cluster + medoid + weights),
 *  - a naive estimate from the single heaviest phase.
 *
 * Expected shape: representative-phase estimates land within a few
 * percent of ground truth while simulating a fraction of the phases;
 * the naive single-phase estimate is clearly worse on multi-modal
 * workloads.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/phase_analysis.h"
#include "core/report.h"
#include "suites/machines.h"
#include "suites/spec2017.h"
#include "uarch/simulation.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);

    bench::banner("Extension: SimPoint-style phase reduction "
                  "(cluster phases, simulate representatives)");

    // The context exists for its store wiring: the phased ground-truth
    // runs and phase probes go through simpointEstimate rather than
    // the characterizer, but persist to the same store.
    core::ServiceContext context(
        bench::serviceConfig(opts, {suites::skylakeMachine()}));

    const char *bases[] = {"502.gcc_r", "505.mcf_r", "538.imagick_r",
                           "554.roms_r"};
    const std::size_t num_phases = 8;
    const std::size_t clusters = 3;

    core::TextTable table({"Workload", "Phases", "Reps",
                           "Full CPI", "SimPoint CPI", "Err (%)",
                           "Naive CPI", "Naive err (%)",
                           "Sim. share"});

    for (const char *name : bases) {
        const auto &base = suites::spec2017Benchmark(name);
        trace::PhasedWorkload workload =
            trace::derivePhases(base.profile, num_phases, 0.35);

        core::SimPointConfig config;
        config.clusters = clusters;
        config.instructions = opts.instructions;
        config.warmup = opts.warmup;
        core::SimPointResult result = core::simpointEstimate(
            workload, suites::skylakeMachine(), config,
            context.store());

        // Naive baseline: extrapolate the heaviest phase alone.
        std::size_t heaviest = 0;
        for (std::size_t k = 1; k < workload.phases.size(); ++k)
            if (workload.phases[k].weight >
                workload.phases[heaviest].weight)
                heaviest = k;
        uarch::SimulationConfig probe;
        probe.instructions = config.probe_instructions;
        probe.warmup = config.probe_warmup;
        // Same key as the simpointEstimate probe of the same phase, so
        // this is a store hit even on the cold run.
        double naive_cpi =
            core::storedSimulate(context.store(),
                                 workload.phases[heaviest].profile,
                                 suites::skylakeMachine(), probe)
                .cpi();
        double naive_err =
            100.0 * std::fabs(naive_cpi - result.full_cpi) /
            result.full_cpi;

        table.addRow(
            {name, std::to_string(num_phases),
             std::to_string(result.representatives.size()),
             core::TextTable::num(result.full_cpi),
             core::TextTable::num(result.estimated_cpi),
             core::TextTable::num(result.cpi_error_pct, 1),
             core::TextTable::num(naive_cpi),
             core::TextTable::num(naive_err, 1),
             core::TextTable::num(100.0 * result.simulated_fraction,
                                  0) +
                 "%"});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\nExpected shape: SimPoint errors of a few %%, beating "
                "the naive single-phase\nextrapolation, at a fraction "
                "of the simulated instructions.\n");
    return 0;
}
