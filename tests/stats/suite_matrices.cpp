/**
 * @file
 * Suite feature matrices of a reproduction pass.
 */

#include "suite_matrices.h"

#include "core/characterization.h"
#include "suites/emerging.h"
#include "suites/input_sets.h"
#include "suites/machines.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"

namespace speclens {
namespace stats {

namespace {

std::vector<std::pair<std::string, Matrix>>
measure()
{
    core::CharacterizationConfig config;
    config.instructions = 150'000;
    config.warmup = 40'000;
    core::Characterizer characterizer(suites::profilingMachines(), config);

    auto join = [](std::vector<suites::BenchmarkInfo> a,
                   const std::vector<suites::BenchmarkInfo> &b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
    };
    const std::vector<std::pair<std::string,
                                std::vector<suites::BenchmarkInfo>>>
        suites = {
            {"cpu2017", suites::spec2017()},
            {"speed-int", suites::spec2017SpeedInt()},
            {"rate-int", suites::spec2017RateInt()},
            {"speed-fp", suites::spec2017SpeedFp()},
            {"rate-fp", suites::spec2017RateFp()},
            {"cpu2006", suites::spec2006()},
            {"emerging", suites::emergingBenchmarks()},
            {"cpu2017+cpu2006", join(suites::spec2017(), suites::spec2006())},
            {"cpu2017+emerging",
             join(suites::spec2017(), suites::emergingBenchmarks())},
            {"inputs-int", suites::flattenGroups(suites::inputSetGroupsInt())},
            {"inputs-fp", suites::flattenGroups(suites::inputSetGroupsFp())},
        };

    std::vector<suites::BenchmarkInfo> all;
    for (const auto &[name, suite] : suites)
        all = join(std::move(all), suite);
    characterizer.prepare(all);

    std::vector<std::pair<std::string, Matrix>> out;
    for (const auto &[name, suite] : suites)
        out.emplace_back(name, characterizer.featureMatrix(suite));
    return out;
}

} // namespace

const std::vector<std::pair<std::string, Matrix>> &
reproductionSuiteMatrices()
{
    static const std::vector<std::pair<std::string, Matrix>> matrices =
        measure();
    return matrices;
}

} // namespace stats
} // namespace speclens
