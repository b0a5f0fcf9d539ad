/**
 * @file
 * Benchmark metadata helpers.
 */

#include "benchmark_info.h"

#include <map>
#include <stdexcept>

#include "suites/emerging.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"

namespace speclens {
namespace suites {

std::string
suiteName(Suite suite)
{
    switch (suite) {
      case Suite::Cpu2017: return "CPU2017";
      case Suite::Cpu2006: return "CPU2006";
      case Suite::Cpu2000: return "CPU2000";
      case Suite::Emerging: return "emerging";
    }
    return "unknown";
}

std::string
categoryName(Category category)
{
    switch (category) {
      case Category::SpeedInt: return "SPECspeed INT";
      case Category::RateInt: return "SPECrate INT";
      case Category::SpeedFp: return "SPECspeed FP";
      case Category::RateFp: return "SPECrate FP";
      case Category::Int: return "INT";
      case Category::Fp: return "FP";
      case Category::Other: return "other";
    }
    return "unknown";
}

std::string
domainName(Domain domain)
{
    switch (domain) {
      case Domain::Compiler: return "Compiler/Interpreter";
      case Domain::Compression: return "Compression";
      case Domain::ArtificialIntelligence: return "AI";
      case Domain::CombinatorialOptimization:
        return "Combinatorial optimization";
      case Domain::DiscreteEventSimulation: return "DE simulation";
      case Domain::DocumentProcessing: return "Doc processing";
      case Domain::Physics: return "Physics";
      case Domain::FluidDynamics: return "Fluid dynamics";
      case Domain::MolecularDynamics: return "Molecular dynamics";
      case Domain::Visualization: return "Visualization";
      case Domain::Biomedical: return "Biomedical";
      case Domain::Climatology: return "Climatology";
      case Domain::SpeechRecognition: return "Speech recognition";
      case Domain::LinearProgramming: return "Linear programming";
      case Domain::QuantumChemistry: return "Quantum chemistry";
      case Domain::Eda: return "EDA";
      case Domain::Database: return "Database";
      case Domain::GraphAnalytics: return "Graph analytics";
      case Domain::VideoProcessing: return "Video processing";
      case Domain::Other: return "Other";
    }
    return "unknown";
}

std::string
languageName(Language language)
{
    switch (language) {
      case Language::C: return "C";
      case Language::Cpp: return "C++";
      case Language::Fortran: return "Fortran";
      case Language::CFortran: return "C/Fortran";
      case Language::CCpp: return "C/C++";
      case Language::CCppFortran: return "C/C++/Fortran";
      case Language::Java: return "Java";
    }
    return "unknown";
}

bool
isSpeedCategory(Category category)
{
    return category == Category::SpeedInt || category == Category::SpeedFp;
}

bool
isFpCategory(Category category)
{
    return category == Category::SpeedFp || category == Category::RateFp;
}

const BenchmarkInfo &
findBenchmark(const std::vector<BenchmarkInfo> &list, const std::string &name)
{
    for (const BenchmarkInfo &b : list)
        if (b.name == name)
            return b;
    throw std::out_of_range("findBenchmark: unknown benchmark " + name);
}

const BenchmarkInfo *
shippedBenchmark(const std::string &name)
{
    using Index = std::map<std::string, const BenchmarkInfo *>;
    static const Index by_name = [] {
        Index index;
        for (const auto *suite :
             {&spec2017(), &spec2006(), &emergingBenchmarks()})
            for (const BenchmarkInfo &b : *suite)
                index.emplace(b.name, &b);
        return index;
    }();
    auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : it->second;
}

std::vector<BenchmarkInfo>
filterByCategory(const std::vector<BenchmarkInfo> &list, Category category)
{
    std::vector<BenchmarkInfo> out;
    for (const BenchmarkInfo &b : list)
        if (b.category == category)
            out.push_back(b);
    return out;
}

std::vector<std::string>
benchmarkNames(const std::vector<BenchmarkInfo> &list)
{
    std::vector<std::string> out;
    out.reserve(list.size());
    for (const BenchmarkInfo &b : list)
        out.push_back(b.name);
    return out;
}

} // namespace suites
} // namespace speclens
