/**
 * @file
 * Reproduces Table IX: sensitivity of the CPU2017 benchmarks to
 * branch predictor, L1 D-cache and L1 D-TLB configuration, classified
 * from rank variation across four structurally different machines.
 *
 * Expected shape (paper): bwaves (both versions) most
 * branch-sensitive; fotonik3d most L1D-sensitive; bwaves_r,
 * cactuBSSN, xz, povray, fotonik3d_s among the most D-TLB-sensitive;
 * leela / xz_s / mcf_s have LOW branch sensitivity because they are
 * uniformly bad across machines.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "core/sensitivity.h"
#include "suites/machines.h"
#include "suites/spec2017.h"

using namespace speclens;

namespace {

void
classify(core::Characterizer &characterizer, core::Metric metric,
         const char *title, const char *paper_high)
{
    bench::banner(title);

    const auto &suite = suites::spec2017();
    core::SensitivityReport report =
        core::classifySensitivity(characterizer, suite, metric);

    for (core::SensitivityClass cls :
         {core::SensitivityClass::High, core::SensitivityClass::Medium}) {
        std::printf("%s:\n ", core::sensitivityClassName(cls).c_str());
        for (const std::string &name : report.names(cls))
            std::printf(" %s", name.c_str());
        std::printf("\n");
    }
    std::printf("(low-sensitivity benchmarks omitted, as in the "
                "paper)\n");
    std::printf("Paper high-sensitivity set: %s\n", paper_high);

    // The nuance the paper stresses: low sensitivity can mean
    // "uniformly bad", not "good".
    if (metric == core::Metric::BranchMpki) {
        std::printf("\nUniformly-poor check (paper: leela, xz_s, mcf_s "
                    "are LOW sensitivity yet worst misprediction "
                    "rates):\n");
        for (const core::SensitivityEntry &e : report.entries) {
            if (e.benchmark == "641.leela_s" ||
                e.benchmark == "657.xz_s" ||
                e.benchmark == "605.mcf_s") {
                std::printf("  %-14s class=%-6s mean branch MPKI "
                            "across machines=%.1f\n",
                            e.benchmark.c_str(),
                            core::sensitivityClassName(e.cls).c_str(),
                            e.mean_value);
            }
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);

    // Sensitivity uses the paper's four-machine subset.  One shared
    // characterizer: the three classifications reuse the same 43 x 4
    // campaign instead of re-measuring it per metric.
    core::ServiceContext context(
        bench::serviceConfig(opts, suites::sensitivityMachines()));
    core::Characterizer &characterizer =
        context.characterizerFor(context.sensitivityMachines());

    classify(characterizer, core::Metric::BranchMpki,
             "Table IX (a): branch-prediction sensitivity",
             "603.bwaves_s, 503.bwaves_r");
    classify(characterizer, core::Metric::L1dMpki,
             "Table IX (b): L1 D-cache sensitivity",
             "549.fotonik3d_r, 649.fotonik3d_s");
    classify(characterizer, core::Metric::DtlbMpmi,
             "Table IX (c): L1 D-TLB sensitivity",
             "503.bwaves_r, 507.cactuBSSN_r, 557.xz_r, 511.povray_r, "
             "657.xz_s, 649.fotonik3d_s, 607.cactuBSSN_s");
    return 0;
}
