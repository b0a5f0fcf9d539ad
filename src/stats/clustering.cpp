/**
 * @file
 * Agglomerative clustering implementation (Lance-Williams recurrence).
 */

#include "clustering.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace speclens {
namespace stats {

std::string
linkageName(Linkage linkage)
{
    switch (linkage) {
      case Linkage::Single: return "single";
      case Linkage::Complete: return "complete";
      case Linkage::Average: return "average";
      case Linkage::Ward: return "ward";
    }
    return "unknown";
}

Dendrogram::Dendrogram(std::size_t num_leaves, std::vector<MergeStep> merges)
    : num_leaves_(num_leaves), merges_(std::move(merges))
{
    if (num_leaves_ == 0)
        throw std::invalid_argument("Dendrogram: no leaves");
    if (merges_.size() + 1 != num_leaves_)
        throw std::invalid_argument("Dendrogram: wrong merge count");
    std::size_t max_id = num_leaves_ + merges_.size();
    for (std::size_t k = 0; k < merges_.size(); ++k) {
        const MergeStep &m = merges_[k];
        if (m.left >= num_leaves_ + k || m.right >= num_leaves_ + k ||
            m.left == m.right || m.left >= max_id || m.right >= max_id) {
            throw std::invalid_argument("Dendrogram: bad merge node ids");
        }
    }
}

namespace {

/** Minimal union-find over dendrogram node ids. */
class UnionFind
{
  public:
    explicit UnionFind(std::size_t n) : parent_(n)
    {
        for (std::size_t i = 0; i < n; ++i)
            parent_[i] = i;
    }

    std::size_t
    find(std::size_t x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void
    unite(std::size_t a, std::size_t b)
    {
        parent_[find(a)] = find(b);
    }

  private:
    std::vector<std::size_t> parent_;
};

} // namespace

std::vector<std::vector<std::size_t>>
Dendrogram::cutIntoClusters(std::size_t k) const
{
    if (k < 1 || k > num_leaves_)
        throw std::invalid_argument("cutIntoClusters: k out of range");
    // Keep the earliest num_leaves - k merges.
    UnionFind uf(num_leaves_ + merges_.size());
    for (std::size_t m = 0; m < num_leaves_ - k; ++m) {
        std::size_t node = num_leaves_ + m;
        uf.unite(merges_[m].left, node);
        uf.unite(merges_[m].right, node);
    }

    // Gather leaves by representative.
    std::vector<std::vector<std::size_t>> groups;
    std::vector<long> group_of(num_leaves_ + merges_.size(), -1);
    for (std::size_t leaf = 0; leaf < num_leaves_; ++leaf) {
        std::size_t rep = uf.find(leaf);
        if (group_of[rep] < 0) {
            group_of[rep] = static_cast<long>(groups.size());
            groups.emplace_back();
        }
        groups[static_cast<std::size_t>(group_of[rep])].push_back(leaf);
    }
    // Members are discovered in ascending leaf order, so each group is
    // already sorted and groups are ordered by their smallest member.
    return groups;
}

double
Dendrogram::heightForClusterCount(std::size_t k) const
{
    if (k < 1 || k > num_leaves_)
        throw std::invalid_argument("heightForClusterCount: k out of range");
    if (k == num_leaves_)
        return 0.0;
    // Keeping merges 0 .. (n - k - 1) yields k clusters; the cut height
    // is the height of the last kept merge.
    return merges_[num_leaves_ - k - 1].height;
}

double
Dendrogram::copheneticDistance(std::size_t a, std::size_t b) const
{
    if (a >= num_leaves_ || b >= num_leaves_)
        throw std::out_of_range("copheneticDistance: leaf index");
    if (a == b)
        return 0.0;

    UnionFind uf(num_leaves_ + merges_.size());
    for (std::size_t k = 0; k < merges_.size(); ++k) {
        const MergeStep &m = merges_[k];
        std::size_t node = num_leaves_ + k;
        uf.unite(m.left, node);
        uf.unite(m.right, node);
        if (uf.find(a) == uf.find(b))
            return m.height;
    }
    throw std::logic_error("copheneticDistance: leaves never merged");
}

double
Dendrogram::leafJoinHeight(std::size_t leaf) const
{
    if (leaf >= num_leaves_)
        throw std::out_of_range("leafJoinHeight: leaf index");

    UnionFind uf(num_leaves_ + merges_.size());
    for (std::size_t k = 0; k < merges_.size(); ++k) {
        const MergeStep &m = merges_[k];
        std::size_t node = num_leaves_ + k;
        // The leaf joins a cluster the first time a merge touches its
        // current component.
        bool touches = uf.find(m.left) == uf.find(leaf) ||
                       uf.find(m.right) == uf.find(leaf);
        uf.unite(m.left, node);
        uf.unite(m.right, node);
        if (touches)
            return m.height;
    }
    throw std::logic_error("leafJoinHeight: leaf never merged");
}

std::vector<std::size_t>
Dendrogram::leafOrder() const
{
    // Depth-first traversal from the root; children visited left first.
    std::vector<std::size_t> order;
    order.reserve(num_leaves_);
    std::function<void(std::size_t)> visit = [&](std::size_t node) {
        if (node < num_leaves_) {
            order.push_back(node);
            return;
        }
        const MergeStep &m = merges_[node - num_leaves_];
        visit(m.left);
        visit(m.right);
    };
    if (num_leaves_ == 1)
        return {0};
    visit(num_leaves_ + merges_.size() - 1);
    return order;
}

std::string
Dendrogram::render(const std::vector<std::string> &labels) const
{
    if (labels.size() != num_leaves_)
        throw std::invalid_argument("Dendrogram::render: label count");

    std::ostringstream os;
    os.precision(2);
    os << std::fixed;

    // Render as an indented tree: internal nodes show their merge
    // height, leaves show their label.  Traversal mirrors leafOrder().
    std::function<void(std::size_t, std::size_t)> visit =
        [&](std::size_t node, std::size_t depth) {
            for (std::size_t i = 0; i < depth; ++i)
                os << "  ";
            if (node < num_leaves_) {
                os << "- " << labels[node] << "\n";
                return;
            }
            const MergeStep &m = merges_[node - num_leaves_];
            os << "+ [d=" << m.height << "]\n";
            visit(m.left, depth + 1);
            visit(m.right, depth + 1);
        };

    if (num_leaves_ == 1) {
        os << "- " << labels[0] << "\n";
    } else {
        visit(num_leaves_ + merges_.size() - 1, 0);
    }
    return os.str();
}

Dendrogram
agglomerate(const Matrix &distances, Linkage linkage)
{
    std::size_t n = distances.rows();
    if (n == 0 || distances.cols() != n)
        throw std::invalid_argument("agglomerate: matrix not square");
    if (!distances.isSymmetric(1e-9))
        throw std::invalid_argument("agglomerate: matrix not symmetric");
    if (n == 1)
        return Dendrogram(1, {});

    static obs::Timing &agglomerate_time =
        obs::Registry::global().timing("stats.cluster.agglomerate");
    obs::Span span(agglomerate_time);

    bool squared = linkage == Linkage::Ward;

    // Active cluster bookkeeping: current[i] >= 0 iff cluster slot i is
    // alive; node_id maps slots to dendrogram node numbers; size is the
    // leaf count.
    std::vector<bool> alive(n, true);
    std::vector<std::size_t> node_id(n);
    std::vector<double> size(n, 1.0);
    for (std::size_t i = 0; i < n; ++i)
        node_id[i] = i;

    // Working distance matrix (squared for Ward).
    Matrix d = distances;
    if (squared) {
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                d(i, j) = d(i, j) * d(i, j);
    }

    std::vector<MergeStep> merges;
    merges.reserve(n - 1);

    for (std::size_t step = 0; step + 1 < n; ++step) {
        // Find the closest pair of alive clusters.
        double best = std::numeric_limits<double>::infinity();
        std::size_t bi = 0, bj = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!alive[i])
                continue;
            for (std::size_t j = i + 1; j < n; ++j) {
                if (!alive[j])
                    continue;
                if (d(i, j) < best) {
                    best = d(i, j);
                    bi = i;
                    bj = j;
                }
            }
        }

        double height = squared ? std::sqrt(best) : best;
        std::size_t new_node = n + step;
        merges.push_back({node_id[bi], node_id[bj], height,
                          static_cast<std::size_t>(size[bi] + size[bj])});

        // Lance-Williams update of distances from the merged cluster
        // (stored in slot bi) to every other alive cluster k:
        //   d(ij, k) = a_i d(i,k) + a_j d(j,k) + b d(i,j)
        //              + g |d(i,k) - d(j,k)|
        double ni = size[bi], nj = size[bj];
        for (std::size_t k = 0; k < n; ++k) {
            if (!alive[k] || k == bi || k == bj)
                continue;
            double dik = d(bi, k);
            double djk = d(bj, k);
            double dij = d(bi, bj);
            double nk = size[k];
            double updated = 0.0;
            switch (linkage) {
              case Linkage::Single:
                updated = 0.5 * dik + 0.5 * djk - 0.5 * std::fabs(dik - djk);
                break;
              case Linkage::Complete:
                updated = 0.5 * dik + 0.5 * djk + 0.5 * std::fabs(dik - djk);
                break;
              case Linkage::Average:
                updated = (ni * dik + nj * djk) / (ni + nj);
                break;
              case Linkage::Ward: {
                double denom = ni + nj + nk;
                updated = ((ni + nk) * dik + (nj + nk) * djk - nk * dij) /
                          denom;
                break;
              }
            }
            d(bi, k) = updated;
            d(k, bi) = updated;
        }

        node_id[bi] = new_node;
        size[bi] = ni + nj;
        alive[bj] = false;
    }

    return Dendrogram(n, std::move(merges));
}

Dendrogram
clusterPoints(const Matrix &points, Linkage linkage)
{
    return agglomerate(pairwiseDistances(points), linkage);
}

} // namespace stats
} // namespace speclens
