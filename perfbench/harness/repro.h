/**
 * @file
 * One full paper reproduction pass, as the public SpecLens API runs it.
 *
 * A pass prepares the measurement campaign every reproduction reads,
 * then renders each reproduction the CLI exposes: characterize over all
 * of CPU2017, subset for each of the four categories, sensitivity for
 * branch/l1d/dtlb, the memory-centric table, the int and fp input-set
 * studies, CPU2017 coverage of the emerging workloads, the CPU2017,
 * CPU2006 and emerging feature-matrix CSVs, and the markdown report of
 * each category.  The concatenated output is what the correctness
 * gates compare byte for byte.
 */

#ifndef PERFBENCH_REPRO_H
#define PERFBENCH_REPRO_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/service_context.h"
#include "suites/benchmark_info.h"
#include "tracer.h"
#include "uarch/machine.h"

namespace perfbench {

/** Pinned simulation window: measured and warm-up records per pair. */
inline constexpr std::uint64_t kInstructions = 150'000;
inline constexpr std::uint64_t kWarmup = 40'000;

/** Campaign worker threads (one per core of the reference host). */
inline constexpr std::size_t kJobs = 4;

/** ServiceConfig of every workload: pinned window, @p seed as salt. */
speclens::core::ServiceConfig serviceConfig(const std::string &store_dir,
                                            std::uint64_t seed);

/** One machine set of the campaign and the benchmarks measured on it. */
struct CampaignPart
{
    const std::vector<speclens::uarch::MachineConfig> *machines = nullptr;
    std::vector<speclens::suites::BenchmarkInfo> benchmarks; //!< Distinct.
};

/** Every (benchmark, machine set) the reproductions of a pass read. */
std::vector<CampaignPart> campaign(const speclens::core::ServiceContext &context);

/**
 * Store fingerprint of every (benchmark, machine) pair of @p parts, in
 * campaign order.  Pairs whose models are identical share one; a cold
 * pass simulates each distinct fingerprint once and loads its twins.
 */
std::vector<std::uint64_t>
campaignFingerprints(const std::vector<CampaignPart> &parts,
                     const speclens::core::CharacterizationConfig &config);

/** Number of distinct fingerprints: the simulations of a cold pass. */
std::size_t
campaignSimulations(const std::vector<CampaignPart> &parts,
                    const speclens::core::CharacterizationConfig &config);

/**
 * Run one reproduction pass against @p context and return its output.
 * Each call into a SpecLens layer is wrapped in a span of @p tracer
 * (null = untraced) tagged with operation @p op, under a root span
 * `bench.pass`.  Throws std::runtime_error when a query is rejected.
 */
std::string reproduce(speclens::core::ServiceContext &context,
                      Tracer *tracer, std::uint32_t op);

} // namespace perfbench

#endif // PERFBENCH_REPRO_H
