/**
 * @file
 * Similarity pipeline implementation.
 */

#include "similarity.h"

#include <limits>
#include <stdexcept>

#include "stats/distance.h"

namespace speclens {
namespace core {

double
SimilarityResult::pcDistance(std::size_t a, std::size_t b) const
{
    return stats::distance(scores.row(a), scores.row(b));
}

std::size_t
SimilarityResult::indexOf(const std::string &label) const
{
    for (std::size_t i = 0; i < labels.size(); ++i)
        if (labels[i] == label)
            return i;
    throw std::out_of_range("SimilarityResult::indexOf: " + label);
}

std::size_t
SimilarityResult::mostDistinct() const
{
    std::size_t best = 0;
    double best_min = -1.0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        double nearest = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < labels.size(); ++j) {
            if (i == j)
                continue;
            nearest = std::min(nearest, pcDistance(i, j));
        }
        if (nearest > best_min) {
            best_min = nearest;
            best = i;
        }
    }
    return best;
}

std::string
SimilarityResult::renderDendrogram() const
{
    return dendrogram.render(labels);
}

SimilarityResult
analyzeSimilarity(const stats::Matrix &features,
                  std::vector<std::string> labels,
                  const SimilarityConfig &config)
{
    if (features.rows() != labels.size())
        throw std::invalid_argument("analyzeSimilarity: label count");
    if (features.rows() < 2)
        throw std::invalid_argument("analyzeSimilarity: need >= 2 rows");

    SimilarityResult out;
    out.labels = std::move(labels);
    out.config = config;
    out.pca = stats::fitPca(features, config.retention);
    out.scores = out.pca.scores;
    out.dendrogram =
        stats::clusterPoints(out.scores, config.linkage);
    return out;
}

} // namespace core
} // namespace speclens
