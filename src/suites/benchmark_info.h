/**
 * @file
 * Benchmark metadata: identity, suite membership, application domain and
 * the calibrated workload model.
 *
 * The databases built from this type (spec2017.h, spec2006.h,
 * emerging.h) carry every benchmark the paper analyses: the 43 SPEC
 * CPU2017 programs (Table I), the CPU2006 predecessors used for the
 * balance comparison (Section V-A), the CPU2000 EDA pair of the case
 * study in Section V-D, and the emerging database / graph-analytics
 * workloads of Sections V-E/V-F.
 */

#ifndef SPECLENS_SUITES_BENCHMARK_INFO_H
#define SPECLENS_SUITES_BENCHMARK_INFO_H

#include <string>
#include <vector>

#include "trace/workload_profile.h"

namespace speclens {
namespace suites {

/** Benchmark suite of origin. */
enum class Suite {
    Cpu2017,
    Cpu2006,
    Cpu2000,
    Emerging, //!< Database / graph-analytics case-study workloads.
};

/** Sub-suite category. */
enum class Category {
    SpeedInt, //!< SPECspeed Integer (6xx INT).
    RateInt,  //!< SPECrate Integer (5xx INT).
    SpeedFp,  //!< SPECspeed Floating Point (6xx FP).
    RateFp,   //!< SPECrate Floating Point (5xx FP).
    Int,      //!< Undivided integer suite (CPU2006/2000).
    Fp,       //!< Undivided floating-point suite (CPU2006/2000).
    Other,    //!< Emerging workloads.
};

/** Application domain (Table VIII plus domains from older suites). */
enum class Domain {
    Compiler,
    Compression,
    ArtificialIntelligence,
    CombinatorialOptimization,
    DiscreteEventSimulation,
    DocumentProcessing,
    Physics,
    FluidDynamics,
    MolecularDynamics,
    Visualization,
    Biomedical,
    Climatology,
    SpeechRecognition,
    LinearProgramming,
    QuantumChemistry,
    Eda,
    Database,
    GraphAnalytics,
    VideoProcessing,
    Other,
};

/** Source language(s). */
enum class Language { C, Cpp, Fortran, CFortran, CCpp, CCppFortran, Java };

/** Human-readable names for the enums above. */
std::string suiteName(Suite suite);
std::string categoryName(Category category);
std::string domainName(Domain domain);
std::string languageName(Language language);

/** True for the two speed categories. */
bool isSpeedCategory(Category category);

/** True for the two floating-point CPU2017 categories. */
bool isFpCategory(Category category);

/** One benchmark. */
struct BenchmarkInfo
{
    /** SPEC numeric id (e.g. 605); 0 for non-SPEC workloads. */
    int id = 0;

    /** Full name, e.g. "605.mcf_s" or "cas-WA". */
    std::string name;

    Suite suite = Suite::Cpu2017;
    Category category = Category::Other;
    Domain domain = Domain::Other;
    Language language = Language::C;

    /** True when newly added in CPU2017 (Section II-A). */
    bool new_in_2017 = false;

    /**
     * Name of the rate/speed counterpart ("505.mcf_r" for 605.mcf_s);
     * empty when the benchmark exists in only one category.
     */
    std::string partner;

    /**
     * Published Skylake CPI (Table I) used to calibrate the model;
     * 0 when the paper gives none (CPU2006/emerging workloads use
     * literature-derived estimates).
     */
    double published_cpi = 0.0;

    /** Calibrated statistical workload model. */
    trace::WorkloadProfile profile;
};

/**
 * Find a benchmark by name in a list.
 * @throws std::out_of_range when absent.
 */
const BenchmarkInfo &findBenchmark(const std::vector<BenchmarkInfo> &list,
                                   const std::string &name);

/**
 * The shipped benchmark named @p name, searched in CPU2017, then
 * CPU2006, then the emerging workloads (the first suite wins a name
 * collision, of which there is none today); null when unknown.
 */
const BenchmarkInfo *shippedBenchmark(const std::string &name);

/** All benchmarks of @p category from @p list, in listed order. */
std::vector<BenchmarkInfo>
filterByCategory(const std::vector<BenchmarkInfo> &list, Category category);

/** Names of all benchmarks in @p list, in order. */
std::vector<std::string>
benchmarkNames(const std::vector<BenchmarkInfo> &list);

} // namespace suites
} // namespace speclens

#endif // SPECLENS_SUITES_BENCHMARK_INFO_H
