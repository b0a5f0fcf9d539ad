/**
 * @file
 * Agglomerative hierarchical clustering and dendrogram representation.
 *
 * The paper (Section III) clusters benchmarks bottom-up on Euclidean
 * distances in PCA space and presents the result as a dendrogram whose
 * linkage distances express benchmark (dis)similarity.  Cutting the
 * dendrogram at a chosen linkage distance yields benchmark subsets
 * (Section IV-A, Figs. 2-4); this header provides the clustering, the
 * tree, cuts by height or by cluster count, cophenetic distances, and a
 * text rendering used by the figure-reproduction benchmarks.
 */

#ifndef SPECLENS_STATS_CLUSTERING_H
#define SPECLENS_STATS_CLUSTERING_H

#include <cstddef>
#include <string>
#include <vector>

#include "distance.h"
#include "matrix.h"

namespace speclens {
namespace stats {

/** Cluster-to-cluster distance update rules (Lance-Williams family). */
enum class Linkage {
    Single,   //!< Nearest-neighbour merge distance.
    Complete, //!< Furthest-neighbour merge distance.
    Average,  //!< UPGMA; unweighted average pairwise distance.
    Ward,     //!< Minimum within-cluster variance increase.
};

/** Human-readable linkage name. */
std::string linkageName(Linkage linkage);

/**
 * One agglomeration step.  Nodes are numbered scipy-style: leaves are
 * 0 .. n-1 and the node created by merge step k (0-based) is n + k.
 */
struct MergeStep
{
    std::size_t left;   //!< First merged node id.
    std::size_t right;  //!< Second merged node id.
    double height;      //!< Linkage distance at which the merge happened.
    std::size_t size;   //!< Number of leaves under the new node.
};

/**
 * Hierarchical clustering result.
 *
 * Immutable after construction; all queries are const.
 */
class Dendrogram
{
  public:
    Dendrogram() = default;

    /**
     * Build from a merge list.  @p merges must contain exactly
     * num_leaves - 1 steps referencing valid node ids.
     */
    Dendrogram(std::size_t num_leaves, std::vector<MergeStep> merges);

    /** Number of leaf observations. */
    std::size_t numLeaves() const { return num_leaves_; }

    /** Merge steps in agglomeration order. */
    const std::vector<MergeStep> &merges() const { return merges_; }

    /**
     * Exactly @p k clusters obtained by undoing the last k - 1 merges
     * ("drawing a vertical line" through the dendrogram, as the paper
     * does in Fig. 2).  k must be in [1, numLeaves()].  Each cluster
     * is a sorted list of leaf indices; clusters are ordered by
     * smallest member.
     */
    std::vector<std::vector<std::size_t>>
    cutIntoClusters(std::size_t k) const;

    /**
     * Smallest cut height that yields at most @p k clusters; the
     * "linkage distance budget" equivalent of cutIntoClusters.
     */
    double heightForClusterCount(std::size_t k) const;

    /**
     * Cophenetic distance: the height of the lowest common ancestor of
     * two leaves, i.e. the linkage distance at which they first share a
     * cluster.  This is the "linkage distance between benchmarks" the
     * paper reads off its dendrograms.
     */
    double copheneticDistance(std::size_t a, std::size_t b) const;

    /**
     * Height of the first merge that joins leaf @p leaf to anything,
     * i.e. how early the leaf stops being a singleton.  Leaves with a
     * large join height are outliers (e.g. 605.mcf_s in Fig. 2).
     */
    double leafJoinHeight(std::size_t leaf) const;

    /** Leaves ordered as a crossing-free dendrogram drawing would list. */
    std::vector<std::size_t> leafOrder() const;

    /**
     * ASCII rendering of the tree: one line per leaf in leafOrder(),
     * with merge heights annotated.  @p labels must have numLeaves()
     * entries.
     */
    std::string render(const std::vector<std::string> &labels) const;

  private:
    std::size_t num_leaves_ = 0;
    std::vector<MergeStep> merges_;
};

/**
 * Agglomerative clustering from a precomputed symmetric distance matrix.
 *
 * Uses the Lance-Williams recurrence for all linkages.  For Ward the
 * input must contain Euclidean distances; they are squared internally
 * and merge heights are reported back on the original scale.
 *
 * @param distances Symmetric n x n matrix with zero diagonal.
 * @param linkage Update rule.
 * @throws std::invalid_argument for malformed input.
 */
Dendrogram agglomerate(const Matrix &distances,
                       Linkage linkage = Linkage::Average);

/**
 * Convenience wrapper: cluster the rows of a points matrix (e.g. PCA
 * scores).
 */
Dendrogram clusterPoints(const Matrix &points,
                         Linkage linkage = Linkage::Average);

} // namespace stats
} // namespace speclens

#endif // SPECLENS_STATS_CLUSTERING_H
