/**
 * @file
 * Unit and property tests for hierarchical clustering and dendrograms.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "stats/clustering.h"
#include "stats/rng.h"

namespace speclens {
namespace stats {
namespace {

/** Three well-separated 2-D blobs of the given sizes. */
Matrix
threeBlobs(std::size_t per_blob, double spread = 0.1)
{
    Rng rng(123);
    Matrix points(3 * per_blob, 2);
    const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
    for (std::size_t blob = 0; blob < 3; ++blob) {
        for (std::size_t i = 0; i < per_blob; ++i) {
            std::size_t row = blob * per_blob + i;
            points(row, 0) = centers[blob][0] + spread * rng.gaussian();
            points(row, 1) = centers[blob][1] + spread * rng.gaussian();
        }
    }
    return points;
}

TEST(DendrogramTest, ConstructionValidation)
{
    EXPECT_NO_THROW(Dendrogram(1, {}));
    EXPECT_NO_THROW(Dendrogram(2, {{0, 1, 1.0, 2}}));
    EXPECT_THROW(Dendrogram(0, {}), std::invalid_argument);
    EXPECT_THROW(Dendrogram(3, {{0, 1, 1.0, 2}}),
                 std::invalid_argument); // missing one merge
    EXPECT_THROW(Dendrogram(2, {{0, 0, 1.0, 2}}),
                 std::invalid_argument); // self merge
    EXPECT_THROW(Dendrogram(2, {{0, 5, 1.0, 2}}),
                 std::invalid_argument); // bad node id
}

TEST(DendrogramTest, CutIntoClustersCounts)
{
    Matrix points = threeBlobs(4);
    Dendrogram tree = clusterPoints(points, Linkage::Average);
    for (std::size_t k = 1; k <= 12; ++k)
        EXPECT_EQ(tree.cutIntoClusters(k).size(), k);
    EXPECT_THROW(tree.cutIntoClusters(0), std::invalid_argument);
    EXPECT_THROW(tree.cutIntoClusters(13), std::invalid_argument);
}

TEST(DendrogramTest, ThreeBlobsRecoveredByAllLinkages)
{
    Matrix points = threeBlobs(5);
    for (Linkage linkage : {Linkage::Single, Linkage::Complete,
                            Linkage::Average, Linkage::Ward}) {
        Dendrogram tree = clusterPoints(points, linkage);
        auto clusters = tree.cutIntoClusters(3);
        ASSERT_EQ(clusters.size(), 3u) << linkageName(linkage);
        for (const auto &cluster : clusters) {
            ASSERT_EQ(cluster.size(), 5u) << linkageName(linkage);
            // All members belong to the same blob.
            std::size_t blob = cluster[0] / 5;
            for (std::size_t leaf : cluster)
                EXPECT_EQ(leaf / 5, blob) << linkageName(linkage);
        }
    }
}

TEST(DendrogramTest, HeightForClusterCountKeepsExactlyTheCutsMerges)
{
    // Drawing the line at heightForClusterCount(k) keeps exactly the
    // num_leaves - k merges cutIntoClusters(k) keeps (the blob merge
    // heights are distinct).
    Matrix points = threeBlobs(4);
    Dendrogram tree = clusterPoints(points, Linkage::Ward);
    for (std::size_t k = 1; k <= tree.numLeaves(); ++k) {
        double h = tree.heightForClusterCount(k);
        std::size_t kept = 0;
        for (const MergeStep &m : tree.merges())
            kept += m.height <= h;
        EXPECT_EQ(kept, tree.numLeaves() - k) << "k = " << k;
    }
}

TEST(DendrogramTest, CopheneticDistanceProperties)
{
    Matrix points = threeBlobs(3);
    Dendrogram tree = clusterPoints(points, Linkage::Average);
    // Same-blob leaves share a lower ancestor than cross-blob leaves.
    EXPECT_LT(tree.copheneticDistance(0, 1),
              tree.copheneticDistance(0, 3));
    EXPECT_DOUBLE_EQ(tree.copheneticDistance(2, 2), 0.0);
    // Symmetry.
    EXPECT_DOUBLE_EQ(tree.copheneticDistance(1, 7),
                     tree.copheneticDistance(7, 1));
}

TEST(DendrogramTest, LeafJoinHeightIdentifiesOutlier)
{
    // Nine clustered points plus one far outlier: the outlier joins
    // last and highest.
    Matrix points(10, 2);
    Rng rng(5);
    for (std::size_t i = 0; i < 9; ++i) {
        points(i, 0) = rng.gaussian() * 0.1;
        points(i, 1) = rng.gaussian() * 0.1;
    }
    points(9, 0) = 100.0;
    points(9, 1) = 100.0;

    Dendrogram tree = clusterPoints(points, Linkage::Average);
    double outlier_height = tree.leafJoinHeight(9);
    for (std::size_t i = 0; i < 9; ++i)
        EXPECT_LT(tree.leafJoinHeight(i), outlier_height);
}

TEST(DendrogramTest, LeafOrderIsPermutation)
{
    Matrix points = threeBlobs(4);
    Dendrogram tree = clusterPoints(points);
    auto order = tree.leafOrder();
    ASSERT_EQ(order.size(), 12u);
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(DendrogramTest, RenderContainsAllLabels)
{
    Matrix points = threeBlobs(2);
    Dendrogram tree = clusterPoints(points);
    std::vector<std::string> labels{"a", "b", "c", "d", "e", "f"};
    std::string rendered = tree.render(labels);
    for (const std::string &label : labels)
        EXPECT_NE(rendered.find("- " + label), std::string::npos);
    EXPECT_THROW(tree.render({"too", "few"}), std::invalid_argument);
}

TEST(AgglomerateTest, InputValidation)
{
    EXPECT_THROW(agglomerate(Matrix(2, 3)), std::invalid_argument);
    Matrix asym{{0, 1}, {2, 0}};
    EXPECT_THROW(agglomerate(asym), std::invalid_argument);
}

TEST(AgglomerateTest, SingleObservation)
{
    Dendrogram tree = agglomerate(Matrix(1, 1));
    EXPECT_EQ(tree.numLeaves(), 1u);
    EXPECT_TRUE(tree.merges().empty());
}

TEST(AgglomerateTest, TwoPointsMergeAtTheirDistance)
{
    Matrix d{{0, 3.5}, {3.5, 0}};
    for (Linkage linkage : {Linkage::Single, Linkage::Complete,
                            Linkage::Average, Linkage::Ward}) {
        Dendrogram tree = agglomerate(d, linkage);
        ASSERT_EQ(tree.merges().size(), 1u);
        EXPECT_NEAR(tree.merges()[0].height, 3.5, 1e-12)
            << linkageName(linkage);
    }
}

TEST(AgglomerateTest, SingleVersusCompleteOnChain)
{
    // Chain 0-1-2 with distances d(0,1)=1, d(1,2)=1, d(0,2)=2:
    // single linkage merges {0,1} with 2 at distance 1; complete at 2.
    Matrix d{{0, 1, 2}, {1, 0, 1}, {2, 1, 0}};
    Dendrogram single_tree = agglomerate(d, Linkage::Single);
    Dendrogram complete_tree = agglomerate(d, Linkage::Complete);
    EXPECT_NEAR(single_tree.merges()[1].height, 1.0, 1e-12);
    EXPECT_NEAR(complete_tree.merges()[1].height, 2.0, 1e-12);
}

class LinkageMonotonicityTest : public ::testing::TestWithParam<Linkage>
{
};

TEST_P(LinkageMonotonicityTest, MergeHeightsNeverDecrease)
{
    // All four implemented linkages are reducible, so the merge
    // sequence must be monotone.
    Rng rng(99);
    Matrix points(25, 3);
    for (std::size_t r = 0; r < 25; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            points(r, c) = rng.gaussian();
    Dendrogram tree = clusterPoints(points, GetParam());
    const auto &merges = tree.merges();
    for (std::size_t i = 0; i + 1 < merges.size(); ++i)
        EXPECT_LE(merges[i].height, merges[i + 1].height + 1e-9)
            << linkageName(GetParam()) << " step " << i;
}

TEST_P(LinkageMonotonicityTest, MergeSizesAccumulateToAllLeaves)
{
    Rng rng(101);
    Matrix points(12, 2);
    for (std::size_t r = 0; r < 12; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            points(r, c) = rng.gaussian();
    Dendrogram tree = clusterPoints(points, GetParam());
    EXPECT_EQ(tree.merges().back().size, 12u);
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, LinkageMonotonicityTest,
                         ::testing::Values(Linkage::Single,
                                           Linkage::Complete,
                                           Linkage::Average,
                                           Linkage::Ward),
                         [](const auto &info) {
                             return linkageName(info.param);
                         });

} // namespace
} // namespace stats
} // namespace speclens
