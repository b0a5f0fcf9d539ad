/**
 * @file
 * Principal Component Analysis with Kaiser-criterion component retention.
 *
 * This implements the dimensionality-reduction step of the paper's
 * methodology (Section III): metrics are z-scored, the correlation
 * matrix is eigen-decomposed, and the top components are retained.  The
 * paper uses the Kaiser criterion — keep components whose eigenvalue is
 * >= 1, i.e. components that explain at least as much variance as one
 * original standardised metric — and reports the cumulative variance
 * they cover (e.g. 7 PCs / 91% for the speed-INT dendrogram in Fig. 2).
 *
 * The eigensolve runs on whichever side of the problem is smaller.  A
 * suite matrix has far fewer benchmarks (n <= 43) than features
 * (p = 140), and the p x p correlation matrix then has rank <= n - 1;
 * the n x n Gram matrix of the same standardized data carries the same
 * nonzero eigenvalues, and its eigenvectors map to the loadings.
 */

#ifndef SPECLENS_STATS_PCA_H
#define SPECLENS_STATS_PCA_H

#include <cstddef>
#include <vector>

#include "matrix.h"
#include "normalize.h"

namespace speclens {
namespace stats {

/**
 * How many principal components to retain.
 *
 * Whatever the policy, no component past the numerical rank is kept:
 * only components with eigenvalue > 1e-9 x the largest qualify.
 * Beyond the rank a component has no defined loading on either side
 * of the eigenproblem, only solver noise.  FixedCount(50) on a 10-row
 * matrix therefore keeps at most 9 components.
 */
struct RetentionPolicy
{
    /**
     * Kaiser criterion: keep components with eigenvalue >= threshold
     * (threshold 1.0 in the paper).
     */
    static RetentionPolicy
    kaiser(double threshold = 1.0)
    {
        return {Mode::Kaiser, threshold, 0, 0.0};
    }

    /** Keep exactly @p k components (clamped to the available count). */
    static RetentionPolicy
    fixedCount(std::size_t k)
    {
        return {Mode::FixedCount, 0.0, k, 0.0};
    }

    /** Keep the fewest components covering @p fraction of total variance. */
    static RetentionPolicy
    varianceCovered(double fraction)
    {
        return {Mode::VarianceCovered, 0.0, 0, fraction};
    }

    enum class Mode { Kaiser, FixedCount, VarianceCovered };

    Mode mode = Mode::Kaiser;
    double kaiser_threshold = 1.0;
    std::size_t count = 0;
    double variance_fraction = 0.9;
};

/** Fitted PCA model. */
struct PcaResult
{
    /** Standardisation parameters of the training data. */
    ColumnStats training_stats;

    /**
     * All p eigenvalues of the correlation matrix, descending.  A fit
     * with n < p rows solved the Gram side; its last p - n entries are
     * exact zeros.
     */
    std::vector<double> eigenvalues;

    /**
     * Loading matrix: column k holds the loading factors a_k of
     * Equation (1) in the paper, i.e. the weights combining original
     * metrics into PC k.  Only retained components are kept.
     *
     * Each column has a canonical sign: its largest-magnitude entry
     * is positive (entries within a relative 1e-9 of the largest tie,
     * and the lowest index wins), so loadings and scores do not depend
     * on which side of the eigenproblem was solved.
     */
    Matrix loadings;

    /** Training observations projected onto the retained components. */
    Matrix scores;

    /** Number of retained components. */
    std::size_t retained = 0;

    /** Fraction of total variance covered by the retained components. */
    double variance_covered = 0.0;

    /** Fraction of variance explained by each retained component. */
    std::vector<double> variance_per_component;

    /**
     * Project new (raw, unstandardised) observations into the retained
     * PC space using the training standardisation.
     */
    Matrix project(const Matrix &raw) const;

    /**
     * Index of the original metric with the largest absolute loading on
     * component @p pc — "PC2 is dominated by branch MPKI" style
     * statements in the paper come from this.  It is the entry the
     * sign rule makes positive, so near-ties resolve the same way.
     */
    std::size_t dominantMetric(std::size_t pc) const;
};

/**
 * Fit PCA on a raw observations-by-metrics matrix.
 *
 * The matrix is z-scored internally; pass raw metric values.
 *
 * @param raw Observations x metrics (rows x cols), at least 2 rows.
 * @param policy Component retention policy (Kaiser by default).
 * @throws std::invalid_argument for degenerate input: fewer than 2
 *         rows, no columns, or every column constant.
 */
PcaResult fitPca(const Matrix &raw,
                 const RetentionPolicy &policy = RetentionPolicy::kaiser());

} // namespace stats
} // namespace speclens

#endif // SPECLENS_STATS_PCA_H
