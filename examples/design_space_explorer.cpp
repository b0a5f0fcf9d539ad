/**
 * @file
 * Pre-silicon design-space exploration with a representative subset —
 * the use case the paper's subsetting exists for.
 *
 * An architect sweeps L1D capacity and branch-predictor design on a
 * derivative of the Skylake config.  Simulating all 10 SPECrate INT
 * benchmarks per design point is the "expensive" baseline; the
 * 3-benchmark subset gives nearly the same design ranking at a
 * fraction of the cost.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/characterization.h"
#include "core/report.h"
#include "core/similarity.h"
#include "core/subsetting.h"
#include "stats/descriptive.h"
#include "suites/machines.h"
#include "suites/spec2017.h"
#include "uarch/simulation.h"

using namespace speclens;

namespace {

/** Geometric-mean IPC of a benchmark list on a machine. */
double
geomeanIpc(const std::vector<suites::BenchmarkInfo> &benchmarks,
           const uarch::MachineConfig &machine)
{
    std::vector<double> ipcs;
    uarch::SimulationConfig config;
    config.instructions = 80'000;
    config.warmup = 20'000;
    for (const suites::BenchmarkInfo &b : benchmarks)
        ipcs.push_back(
            uarch::simulate(b.profile, machine, config).ipc());
    return stats::geometricMean(ipcs);
}

} // namespace

int
main()
{
    auto suite = suites::spec2017RateInt();

    // Derive the representative subset once, on the stock machines.
    core::Characterizer characterizer(suites::profilingMachines());
    core::SimilarityResult sim = core::analyzeSimilarity(
        characterizer.featureMatrix(suite),
        suites::benchmarkNames(suite));
    core::SubsetResult subset = core::selectSubset(
        sim, 3, core::RepresentativeRule::ShortestLinkage, suite);

    std::vector<suites::BenchmarkInfo> subset_benchmarks;
    for (const std::string &name : subset.representatives)
        subset_benchmarks.push_back(
            suites::findBenchmark(suite, name));

    std::printf("Representative subset:");
    for (const std::string &name : subset.representatives)
        std::printf(" %s", name.c_str());
    std::printf("\n\n");

    // Design points: L1D capacity x predictor sophistication.
    struct DesignPoint
    {
        std::string name;
        std::uint64_t l1d_kib;
        uarch::PredictorKind predictor;
    };
    std::vector<DesignPoint> designs = {
        {"A: 32K L1D, bimodal", 32, uarch::PredictorKind::Bimodal},
        {"B: 32K L1D, TAGE", 32, uarch::PredictorKind::TageLite},
        {"C: 64K L1D, bimodal", 64, uarch::PredictorKind::Bimodal},
        {"D: 64K L1D, TAGE", 64, uarch::PredictorKind::TageLite},
        {"E: 16K L1D, TAGE", 16, uarch::PredictorKind::TageLite},
    };

    core::TextTable table({"Design", "IPC (full suite)", "IPC (subset)",
                           "Subset error (%)"});
    std::vector<std::pair<double, std::string>> full_rank, subset_rank;
    for (const DesignPoint &design : designs) {
        uarch::MachineConfig machine = suites::skylakeMachine();
        machine.name = design.name;
        machine.caches.l1d.size_bytes = design.l1d_kib * 1024;
        machine.predictor = design.predictor;

        double full = geomeanIpc(suite, machine);
        double sampled = geomeanIpc(subset_benchmarks, machine);
        full_rank.emplace_back(full, design.name);
        subset_rank.emplace_back(sampled, design.name);
        table.addRow({design.name, core::TextTable::num(full, 3),
                      core::TextTable::num(sampled, 3),
                      core::TextTable::num(
                          100.0 * std::fabs(sampled - full) / full,
                          1)});
    }
    std::fputs(table.render().c_str(), stdout);

    // Does the subset preserve the design ranking?
    std::sort(full_rank.rbegin(), full_rank.rend());
    std::sort(subset_rank.rbegin(), subset_rank.rend());
    std::printf("\nDesign ranking (best first):\n  full suite: ");
    for (const auto &[ipc, name] : full_rank)
        std::printf("%c ", name[0]);
    std::printf("\n  subset:     ");
    for (const auto &[ipc, name] : subset_rank)
        std::printf("%c ", name[0]);
    std::printf("\n");
    std::printf("%s\n", full_rank == subset_rank
                            ? "=> identical ranking at ~3.3x less "
                              "simulation."
                            : "=> rankings differ; inspect the "
                              "disagreeing design pair.");
    return 0;
}
