/**
 * @file
 * The reproduction registry table and the helpers its renders share.
 */

#include "core/reproductions.h"

#include "core/repro_render.h"
#include "suites/spec2017.h"

namespace speclens {
namespace core {

namespace repro {

void
banner(std::string &out, const std::string &title)
{
    out += "\n=== " + title + " ===\n\n";
}

Characterizer &
profiling(ServiceContext &context)
{
    return context.characterizerFor(context.profilingMachines());
}

std::vector<SubSuiteRow>
subSuiteRows()
{
    return {
        {"SPECspeed INT", suites::spec2017SpeedInt(),
         suites::Category::SpeedInt,
         "605.mcf_s, 641.leela_s, 623.xalancbmk_s", "11%"},
        {"SPECrate INT", suites::spec2017RateInt(),
         suites::Category::RateInt,
         "505.mcf_r, 523.xalancbmk_r, 531.deepsjeng_r", "7%"},
        {"SPECspeed FP", suites::spec2017SpeedFp(),
         suites::Category::SpeedFp,
         "607.cactuBSSN_s, 621.wrf_s, 654.roms_s", "3%"},
        {"SPECrate FP", suites::spec2017RateFp(),
         suites::Category::RateFp,
         "507.cactuBSSN_r, 549.fotonik3d_r, 544.nab_r", "4.5%"},
    };
}

} // namespace repro

const std::vector<Reproduction> &
reproductions()
{
    static const std::vector<Reproduction> table = {
        {"table1_characterization",
         "Table I: instruction count, mix and CPI",
         repro::table1Characterization},
        {"table2_metric_ranges", "Table II: metric ranges per sub-suite",
         repro::table2MetricRanges},
        {"fig1_cpi_stacks", "Fig. 1: CPI stacks", repro::fig1CpiStacks},
        {"fig2_dendrogram_speed_int",
         "Fig. 2: SPECspeed INT dendrogram",
         repro::fig2DendrogramSpeedInt},
        {"fig3_dendrogram_speed_fp", "Fig. 3: SPECspeed FP dendrogram",
         repro::fig3DendrogramSpeedFp},
        {"fig4_dendrogram_rate_fp", "Fig. 4: SPECrate FP dendrogram",
         repro::fig4DendrogramRateFp},
        {"table5_subsets", "Table V: representative subsets",
         repro::table5Subsets},
        {"fig5_validation_int", "Fig. 5: INT subset validation",
         repro::fig5ValidationInt},
        {"fig6_validation_fp", "Fig. 6: FP subset validation",
         repro::fig6ValidationFp},
        {"table6_random_subsets",
         "Table VI: identified vs. random subsets",
         repro::table6RandomSubsets},
        {"fig7_input_sets_int", "Fig. 7: INT input sets",
         repro::fig7InputSetsInt},
        {"fig8_input_sets_fp", "Fig. 8: FP input sets",
         repro::fig8InputSetsFp},
        {"table7_representative_inputs",
         "Table VII: representative input sets",
         repro::table7RepresentativeInputs},
        {"fig9_branch_pca", "Fig. 9: branch PC space",
         repro::fig9BranchPca},
        {"fig10_cache_pca", "Fig. 10: cache PC spaces",
         repro::fig10CachePca},
        {"table8_domains", "Table VIII: application domains",
         repro::table8Domains},
        {"fig11_cpu2006_coverage", "Fig. 11, Sec. V-B: CPU2006 coverage",
         repro::fig11Cpu2006Coverage},
        {"fig12_power_pca", "Fig. 12: power PC space",
         repro::fig12PowerPca},
        {"fig13_emerging_workloads",
         "Fig. 13, Sec. V-D/E/F: emerging workloads",
         repro::fig13EmergingWorkloads},
        {"table9_sensitivity", "Table IX: sensitivity classes",
         repro::table9Sensitivity},
        {"table10_rate_speed", "Sec. IV-D: rate vs. speed pairs",
         repro::table10RateSpeed},
        {"ablation_methodology", "Methodology ablations",
         repro::ablationMethodology},
        {"ablation_prefetcher", "Prefetcher ablation, Table IX (d)",
         repro::ablationPrefetcher},
        {"table_memory_centric", "Memory-centric model family",
         repro::tableMemoryCentric},
        {"stability_analysis", "Measurement noise vs. signal",
         repro::stabilityAnalysis},
        {"extension_simpoints", "SimPoint-style phase reduction",
         repro::extensionSimpoints},
    };
    return table;
}

const Reproduction *
findReproduction(const std::string &name)
{
    for (const Reproduction &entry : reproductions())
        if (name == entry.name)
            return &entry;
    return nullptr;
}

} // namespace core
} // namespace speclens
