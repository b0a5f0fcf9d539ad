/**
 * @file
 * The PCA + hierarchical-clustering similarity pipeline (Section III).
 *
 * Raw metric matrices are z-scored, reduced with PCA under the Kaiser
 * criterion, and clustered on Euclidean distances in PC space.  The
 * result bundles everything the downstream analyses need: retained
 * components and variance coverage (reported in every figure caption of
 * the paper), PC scores for scatter plots (Figs. 9-12), and the
 * dendrogram (Figs. 2-4, 7, 8, 13).
 */

#ifndef SPECLENS_CORE_SIMILARITY_H
#define SPECLENS_CORE_SIMILARITY_H

#include <string>
#include <vector>

#include "stats/clustering.h"
#include "stats/matrix.h"
#include "stats/pca.h"

namespace speclens {
namespace core {

/** Pipeline configuration. */
struct SimilarityConfig
{
    /** PCA component retention (Kaiser >= 1 in the paper). */
    stats::RetentionPolicy retention = stats::RetentionPolicy::kaiser();

    /** Cluster-merge rule. */
    stats::Linkage linkage = stats::Linkage::Ward;
};

/** Output of the similarity pipeline. */
struct SimilarityResult
{
    /** Observation labels (benchmark names), row-aligned with scores. */
    std::vector<std::string> labels;

    /** Fitted PCA model. */
    stats::PcaResult pca;

    /** Observations in retained-PC space. */
    stats::Matrix scores;

    /** Hierarchical clustering of the PC-space points. */
    stats::Dendrogram dendrogram;

    /** Configuration used. */
    SimilarityConfig config;

    /**
     * Euclidean distance between two observations in PC space — the
     * "(dis)similarity" number the paper reads off its analyses.
     */
    double pcDistance(std::size_t a, std::size_t b) const;

    /** Index of a label. @throws std::out_of_range when absent. */
    std::size_t indexOf(const std::string &label) const;

    /**
     * The observation whose PC-space point is furthest from all others
     * (max-min distance) — "the most distinct benchmark" statements.
     */
    std::size_t mostDistinct() const;

    /** Render the dendrogram with benchmark labels. */
    std::string renderDendrogram() const;
};

/**
 * Run the pipeline on a raw features matrix.
 *
 * @param features Observations x metrics, raw scale.
 * @param labels One label per row.
 * @param config Pipeline knobs.
 */
SimilarityResult analyzeSimilarity(const stats::Matrix &features,
                                   std::vector<std::string> labels,
                                   const SimilarityConfig &config = {});

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_SIMILARITY_H
