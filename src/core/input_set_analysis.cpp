/**
 * @file
 * Input-set analysis implementation.
 */

#include "input_set_analysis.h"

#include <algorithm>

#include "stats/descriptive.h"
#include "stats/distance.h"

namespace speclens {
namespace core {

InputSetAnalysis
analyzeInputSets(Characterizer &characterizer,
                 const std::vector<suites::InputSetGroup> &groups,
                 const SimilarityConfig &config)
{
    std::vector<suites::BenchmarkInfo> all =
        suites::flattenGroups(groups);

    InputSetAnalysis out;
    out.similarity = analyzeSimilarity(
        characterizer.featureMatrix(all),
        suites::benchmarkNames(all), config);

    const SimilarityResult &sim = out.similarity;

    // Representative per multi-input group: nearest to the group
    // centroid in PC space (the "aggregated benchmark").
    for (const suites::InputSetGroup &group : groups) {
        if (group.inputs.size() < 2)
            continue;

        std::vector<std::size_t> rows;
        rows.reserve(group.inputs.size());
        for (const suites::BenchmarkInfo &input : group.inputs)
            rows.push_back(sim.indexOf(input.name));

        RepresentativeInput rep;
        rep.benchmark = group.benchmark.name;
        std::size_t k = stats::nearestToCentroid(
            sim.scores, rows, &rep.distance_to_aggregate);
        rep.input_index = static_cast<int>(k) + 1;
        rep.variant_name = group.inputs[k].name;

        for (std::size_t a = 0; a < rows.size(); ++a)
            for (std::size_t b = a + 1; b < rows.size(); ++b)
                rep.group_spread = std::max(
                    rep.group_spread, sim.pcDistance(rows[a], rows[b]));

        out.max_within_group_spread =
            std::max(out.max_within_group_spread, rep.group_spread);
        out.representatives.push_back(std::move(rep));
    }

    // Cross-benchmark distance scale for context: distance between the
    // first variant of every pair of distinct benchmarks.
    std::vector<double> cross;
    for (std::size_t i = 0; i < groups.size(); ++i) {
        std::size_t ri = sim.indexOf(groups[i].inputs.front().name);
        for (std::size_t j = i + 1; j < groups.size(); ++j) {
            std::size_t rj = sim.indexOf(groups[j].inputs.front().name);
            cross.push_back(sim.pcDistance(ri, rj));
        }
    }
    if (!cross.empty())
        out.median_cross_benchmark_distance = stats::median(cross);
    return out;
}

} // namespace core
} // namespace speclens
