/**
 * @file
 * Internal to the reproduction registry (reproductions.h): the helpers
 * every render shares and the per-artifact render functions, grouped
 * by paper section across the repro_*.cpp files.  Text goes through
 * report.h (appendf, TextTable, renderScatter, renderStackedBars).
 */

#ifndef SPECLENS_CORE_REPRO_RENDER_H
#define SPECLENS_CORE_REPRO_RENDER_H

#include <string>
#include <vector>

#include "core/service_context.h"
#include "suites/benchmark_info.h"

namespace speclens {
namespace core {
namespace repro {

/** Append a section banner: a blank line, `=== title ===`, a blank. */
void banner(std::string &out, const std::string &title);

/** The context's Characterizer over the seven profiling machines. */
Characterizer &profiling(ServiceContext &context);

/** One CPU2017 sub-suite with its Table V/VI paper columns. */
struct SubSuiteRow
{
    const char *label;
    std::vector<suites::BenchmarkInfo> suite;
    suites::Category category;
    const char *paper_subset;
    const char *paper_error;
};

/** The four sub-suites: speed INT, rate INT, speed FP, rate FP. */
std::vector<SubSuiteRow> subSuiteRows();

// Section II: workload characterization (repro_characterization.cpp).
std::string table1Characterization(ServiceContext &context);
std::string table2MetricRanges(ServiceContext &context);
std::string fig1CpiStacks(ServiceContext &context);

// Section IV: similarity, subsets and input sets (repro_subsetting.cpp).
std::string fig2DendrogramSpeedInt(ServiceContext &context);
std::string fig3DendrogramSpeedFp(ServiceContext &context);
std::string fig4DendrogramRateFp(ServiceContext &context);
std::string table5Subsets(ServiceContext &context);
std::string fig5ValidationInt(ServiceContext &context);
std::string fig6ValidationFp(ServiceContext &context);
std::string table6RandomSubsets(ServiceContext &context);
std::string fig7InputSetsInt(ServiceContext &context);
std::string fig8InputSetsFp(ServiceContext &context);
std::string table7RepresentativeInputs(ServiceContext &context);
std::string table10RateSpeed(ServiceContext &context);

// Sections IV-E/F and V: feature spaces and coverage
// (repro_coverage.cpp).
std::string fig9BranchPca(ServiceContext &context);
std::string fig10CachePca(ServiceContext &context);
std::string table8Domains(ServiceContext &context);
std::string fig11Cpu2006Coverage(ServiceContext &context);
std::string fig12PowerPca(ServiceContext &context);
std::string fig13EmergingWorkloads(ServiceContext &context);

// Section VI and the memory-centric family (repro_sensitivity.cpp).
std::string table9Sensitivity(ServiceContext &context);
std::string ablationPrefetcher(ServiceContext &context);
std::string tableMemoryCentric(ServiceContext &context);

// Methodology checks and extensions (repro_methodology.cpp).
std::string ablationMethodology(ServiceContext &context);
std::string stabilityAnalysis(ServiceContext &context);
std::string extensionSimpoints(ServiceContext &context);

} // namespace repro
} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_REPRO_RENDER_H
