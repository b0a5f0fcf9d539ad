/**
 * @file
 * Subset selection implementation.
 */

#include "subsetting.h"

#include <limits>
#include <stdexcept>

#include "stats/kmeans.h"

namespace speclens {
namespace core {

std::string
representativeRuleName(RepresentativeRule rule)
{
    switch (rule) {
      case RepresentativeRule::ShortestLinkage: return "shortest-linkage";
      case RepresentativeRule::Medoid: return "medoid";
    }
    return "unknown";
}

namespace {

/** Representative by the paper's shortest-linkage rule. */
std::size_t
shortestLinkageMember(const SimilarityResult &analysis,
                      const std::vector<std::size_t> &cluster)
{
    std::size_t best = cluster.front();
    double best_height = std::numeric_limits<double>::infinity();
    for (std::size_t leaf : cluster) {
        double h = analysis.dendrogram.leafJoinHeight(leaf);
        if (h < best_height) {
            best_height = h;
            best = leaf;
        }
    }
    return best;
}

} // namespace

SubsetResult
selectSubset(const SimilarityResult &analysis, std::size_t subset_size,
             RepresentativeRule rule,
             const std::vector<suites::BenchmarkInfo> &benchmarks)
{
    std::size_t n = analysis.labels.size();
    if (subset_size < 1 || subset_size > n)
        throw std::invalid_argument("selectSubset: bad subset size");

    SubsetResult out;
    out.cut_height = analysis.dendrogram.heightForClusterCount(subset_size);

    auto clusters = analysis.dendrogram.cutIntoClusters(subset_size);
    for (const auto &cluster : clusters) {
        std::size_t rep;
        if (rule == RepresentativeRule::Medoid) {
            // Closest to the cluster centroid in PC space; the two
            // members of a pair tie, and the first one wins.
            rep = cluster[stats::nearestToCentroid(analysis.scores,
                                                   cluster)];
        } else if (cluster.size() <= 2) {
            // For singleton and two-member clusters the join height
            // carries no in-cluster information, so take the first
            // (lowest-index) member.
            rep = cluster.front();
        } else {
            rep = shortestLinkageMember(analysis, cluster);
        }
        out.representatives.push_back(analysis.labels[rep]);
        std::vector<std::string> names;
        names.reserve(cluster.size());
        for (std::size_t leaf : cluster)
            names.push_back(analysis.labels[leaf]);
        out.clusters.push_back(std::move(names));
    }

    if (!benchmarks.empty()) {
        double total = 0.0, subset = 0.0;
        for (const std::string &label : analysis.labels) {
            total += suites::findBenchmark(benchmarks, label)
                         .profile.dynamic_instructions_billions;
        }
        for (const std::string &label : out.representatives) {
            subset += suites::findBenchmark(benchmarks, label)
                          .profile.dynamic_instructions_billions;
        }
        if (subset > 0.0)
            out.simulation_time_reduction = total / subset;
    }
    return out;
}

SubsetResult
selectSubsetKmeans(const SimilarityResult &analysis,
                   std::size_t subset_size, std::uint64_t seed,
                   const std::vector<suites::BenchmarkInfo> &benchmarks)
{
    std::size_t n = analysis.labels.size();
    if (subset_size < 1 || subset_size > n)
        throw std::invalid_argument("selectSubsetKmeans: bad size");

    stats::KmeansResult clustering =
        stats::kmeans(analysis.scores, subset_size, seed);

    SubsetResult out;
    for (std::size_t c = 0; c < subset_size; ++c) {
        std::vector<std::size_t> cluster = clustering.members(c);
        if (cluster.empty())
            continue; // repaired clusters can transiently be empty
        // Member closest to the centroid represents the cluster.
        std::size_t rep = cluster.front();
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t leaf : cluster) {
            double dist = stats::distance(analysis.scores.row(leaf),
                                          clustering.centroids.row(c));
            if (dist < best) {
                best = dist;
                rep = leaf;
            }
        }
        out.representatives.push_back(analysis.labels[rep]);
        std::vector<std::string> names;
        for (std::size_t leaf : cluster)
            names.push_back(analysis.labels[leaf]);
        out.clusters.push_back(std::move(names));
    }

    if (!benchmarks.empty()) {
        double total = 0.0, subset = 0.0;
        for (const std::string &label : analysis.labels) {
            total += suites::findBenchmark(benchmarks, label)
                         .profile.dynamic_instructions_billions;
        }
        for (const std::string &label : out.representatives) {
            subset += suites::findBenchmark(benchmarks, label)
                          .profile.dynamic_instructions_billions;
        }
        if (subset > 0.0)
            out.simulation_time_reduction = total / subset;
    }
    return out;
}

} // namespace core
} // namespace speclens
