/**
 * @file
 * stats::symmetricEigen() against the textbook Jacobi oracle
 * (tests/stats/eigen_reference.h), bit for bit: the solver's
 * reordering of the work (transposed accumulator, each rotation planned
 * during the previous one, two-row column steps) must not move a
 * single bit of any eigenvalue or eigenvector.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "eigen_reference.h"
#include "stats/eigen.h"
#include "stats/normalize.h"
#include "stats/rng.h"
#include "suite_matrices.h"

namespace speclens {
namespace stats {
namespace {

/** Same bytes, element for element; NaN and signed zero included. */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void
expectIdentical(const Matrix &m, const std::string &what)
{
    SCOPED_TRACE(what);
    EigenDecomposition fast = symmetricEigen(m);
    EigenDecomposition slow = reference::symmetricEigen(m);
    EXPECT_TRUE(sameBits(fast.values, slow.values));
    EXPECT_TRUE(sameBits(fast.vectors.data(), slow.vectors.data()));
}

/** B + B' for a seeded Gaussian B. */
Matrix
randomSymmetric(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix b(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            b(r, c) = rng.gaussian();
    return b.add(b.transposed());
}

TEST(EigenOracle, SeededRandomSymmetricSizes1To64)
{
    for (std::size_t n = 1; n <= 64; ++n)
        expectIdentical(randomSymmetric(n, 0x5eed + n),
                        "random n=" + std::to_string(n));
}

// Pivots that are exactly zero are skipped, by the rotation itself and
// by the plan of the rotation after it.  Diagonal input skips every
// rotation.  With even and odd indices decoupled, every (even, odd)
// pivot stays exactly zero in every sweep, so skipped and applied
// rotations alternate along each row.  Signed zeros skip too.
TEST(EigenOracle, ExactZeroPivots)
{
    for (std::size_t n : {2u, 5u, 12u}) {
        Matrix diagonal(n, n);
        for (std::size_t i = 0; i < n; ++i)
            diagonal(i, i) = static_cast<double>((i * 7) % 5) - 1.5;
        expectIdentical(diagonal, "diagonal n=" + std::to_string(n));
    }
    for (std::size_t n : {3u, 8u, 17u, 30u}) {
        Matrix m = randomSymmetric(n, 77 + n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                if ((r + c) % 2 == 1)
                    m(r, c) = (r < c) ? 0.0 : -0.0;
        expectIdentical(m, "parity-decoupled n=" + std::to_string(n));
    }
    // Exact zeros in the first rows only: the first pivots of a row are
    // skipped, the later ones are not.
    Matrix m = randomSymmetric(9, 4242);
    for (std::size_t c = 1; c < 5; ++c)
        m(0, c) = m(c, 0) = 0.0;
    expectIdentical(m, "leading zeros");
}

// theta = (a_qq - a_pp) / (2 a_pq) takes both signs and exactly zero.
TEST(EigenOracle, NegativeThetaAndRepeatedEigenvalues)
{
    for (std::size_t n : {4u, 11u, 25u}) {
        // Descending diagonal, positive off-diagonals: theta < 0.
        Matrix descending(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                descending(r, c) =
                    r == c ? static_cast<double>(n - r) : 0.1 + 0.01 * (r + c);
        expectIdentical(descending, "descending n=" + std::to_string(n));

        // Ascending diagonal, negative off-diagonals: theta < 0 again.
        Matrix ascending(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                ascending(r, c) =
                    r == c ? static_cast<double>(r) : -0.3 / (1.0 + r + c);
        expectIdentical(ascending, "ascending n=" + std::to_string(n));

        // I + J: equal diagonals (theta = 0), eigenvalue 1 repeated
        // n - 1 times beside n + 1.
        Matrix ones(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                ones(r, c) = r == c ? 2.0 : 1.0;
        expectIdentical(ones, "I+J n=" + std::to_string(n));

        // One block twice on the diagonal: every eigenvalue doubled.
        Matrix block = randomSymmetric(n, 9000 + n);
        Matrix twice(2 * n, 2 * n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                twice(r, c) = twice(n + r, n + c) = block(r, c);
        expectIdentical(twice, "block twice n=" + std::to_string(2 * n));
    }
}

// The Gram matrix fitPca() decomposes for each suite matrix of a
// reproduction pass (the wide side: n benchmarks < 140 features).
TEST(EigenOracle, ReproductionSuiteGramMatrices)
{
    for (const auto &[name, raw] : reproductionSuiteMatrices()) {
        ASSERT_LT(raw.rows(), raw.cols()) << name;
        Matrix z = zscoreWith(raw, columnStats(raw));
        Matrix gram = z.multiply(z.transposed())
                          .scaled(1.0 / static_cast<double>(raw.rows() - 1));
        expectIdentical(gram, name);
    }
}

} // namespace
} // namespace stats
} // namespace speclens
