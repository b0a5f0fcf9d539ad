/**
 * @file
 * Textbook cyclic Jacobi reference model.
 */

#include "eigen_reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace speclens {
namespace reference {

using stats::Matrix;

namespace {

/** Eliminate a(p, q): A <- J'AJ column pass then row pass, V <- VJ. */
void
rotate(Matrix &a, Matrix &v, std::size_t p, std::size_t q)
{
    double apq = a(p, q);
    if (apq == 0.0)
        return;
    double app = a(p, p);
    double aqq = a(q, q);
    double theta = (aqq - app) / (2.0 * apq);
    double t = (theta >= 0.0 ? 1.0 : -1.0) /
               (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
    double c = 1.0 / std::sqrt(t * t + 1.0);
    double s = t * c;
    std::size_t n = a.rows();
    for (std::size_t k = 0; k < n; ++k) {
        double akp = a(k, p);
        double akq = a(k, q);
        a(k, p) = c * akp - s * akq;
        a(k, q) = s * akp + c * akq;
    }
    for (std::size_t k = 0; k < n; ++k) {
        double apk = a(p, k);
        double aqk = a(q, k);
        a(p, k) = c * apk - s * aqk;
        a(q, k) = s * apk + c * aqk;
    }
    for (std::size_t k = 0; k < n; ++k) {
        double vkp = v(k, p);
        double vkq = v(k, q);
        v(k, p) = c * vkp - s * vkq;
        v(k, q) = s * vkp + c * vkq;
    }
}

} // namespace

stats::EigenDecomposition
symmetricEigen(const Matrix &m, double tol, int max_sweeps)
{
    if (!m.isSymmetric(1e-8))
        throw std::invalid_argument("symmetricEigen: matrix not symmetric");
    std::size_t n = m.rows();
    Matrix a = m;
    Matrix v = Matrix::identity(n);
    double scale = std::max(1.0, a.frobeniusNorm());
    int sweep = 0;
    while (a.maxOffDiagonal() > tol * scale) {
        if (++sweep > max_sweeps)
            throw std::runtime_error("symmetricEigen: did not converge");
        for (std::size_t p = 0; p + 1 < n; ++p)
            for (std::size_t q = p + 1; q < n; ++q)
                rotate(a, v, p, q);
    }

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                         return a(x, x) > a(y, y);
                     });
    stats::EigenDecomposition out;
    out.values.resize(n);
    out.vectors = Matrix(n, n);
    for (std::size_t k = 0; k < n; ++k) {
        out.values[k] = a(order[k], order[k]);
        for (std::size_t r = 0; r < n; ++r)
            out.vectors(r, k) = v(r, order[k]);
    }
    return out;
}

} // namespace reference
} // namespace speclens
