/**
 * @file
 * Cyclic Jacobi eigensolver implementation.
 */

#include "eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace speclens {
namespace stats {

namespace {

/** Two doubles in one SSE2 register (GCC vector extension). */
using Double2 = double __attribute__((vector_size(16)));

/** The (c, s) of one rotation; inactive when its pivot is exactly 0. */
struct Rotation
{
    bool active = false;
    double c = 1.0;
    double s = 0.0;
};

/**
 * The rotation that eliminates pivot @p apq between the diagonal
 * entries @p app and @p aqq.
 */
Rotation
plan(double apq, double app, double aqq)
{
    Rotation r;
    if (apq == 0.0)
        return r;
    double theta = (aqq - app) / (2.0 * apq);
    // Choose the smaller-magnitude root for numerical stability.
    double t = (theta >= 0.0 ? 1.0 : -1.0) /
               (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
    r.c = 1.0 / std::sqrt(t * t + 1.0);
    r.s = t * r.c;
    r.active = true;
    return r;
}

/**
 * The rotation (p, q + 1) will run once rotation @p cur of (p, q) is
 * applied.  It reads a(p, q+1), a(p, p) and a(q+1, q+1); this
 * evaluates them from the matrix before @p cur, with the expressions
 * apply() uses for those three elements, so the next rotation's
 * divide/square-root chain does not wait for this one's loops.
 */
Rotation
following(const Matrix &a, std::size_t p, std::size_t q,
          const Rotation &cur)
{
    const std::size_t r = q + 1;
    const double *rowp = a.rowPtr(p);
    const double *rowq = a.rowPtr(q);
    double apr = rowp[r];
    double app = rowp[p];
    if (cur.active) {
        const double c = cur.c, s = cur.s;
        // The column pass rewrites a(p, p) and a(q, p); column r is
        // not p or q, so a(p, r) and a(q, r) keep their values.
        double app_col = c * app - s * rowp[q];
        double aqp_col = c * rowq[p] - s * rowq[q];
        // The row pass rewrites row p from those.
        app = c * app_col - s * aqp_col;
        apr = c * apr - s * rowq[r];
    }
    // Row and column r are neither p nor q: a(r, r) is untouched.
    return plan(apr, app, a.rowPtr(r)[r]);
}

/**
 * Apply rotation @p rot of (p, q) to @p a and to the eigenvector
 * accumulator @p vt, which is stored TRANSPOSED (vt(j, k) = V(k, j))
 * so that the rotation touches two contiguous rows instead of two
 * strided columns.  Every floating-point operation and its order match
 * the textbook column-wise formulation exactly, so the decomposition
 * is bit-identical; only the memory walk and the register width
 * changed.
 */
void
apply(Matrix &a, Matrix &vt, std::size_t p, std::size_t q,
      const Rotation &rot)
{
    const double c = rot.c, s = rot.s;
    const std::size_t n = a.rows();

    // Column update of a: a stride-n walk, two rows per step.  Each
    // lane computes the scalar expression; nothing is reassociated.
    double *colp = a.rowPtr(0) + p;
    double *colq = a.rowPtr(0) + q;
    const Double2 cc = {c, c};
    const Double2 ss = {s, s};
    std::size_t k = 0;
    for (; k + 1 < n; k += 2) {
        double *p0 = colp + k * n, *p1 = p0 + n;
        double *q0 = colq + k * n, *q1 = q0 + n;
        const Double2 akp = {*p0, *p1};
        const Double2 akq = {*q0, *q1};
        const Double2 np = cc * akp - ss * akq;
        const Double2 nq = ss * akp + cc * akq;
        *p0 = np[0];
        *p1 = np[1];
        *q0 = nq[0];
        *q1 = nq[1];
    }
    if (k < n) {
        double akp = colp[k * n];
        double akq = colq[k * n];
        colp[k * n] = c * akp - s * akq;
        colq[k * n] = s * akp + c * akq;
    }
    // Row update of a: two contiguous rows.
    double *rowp = a.rowPtr(p);
    double *rowq = a.rowPtr(q);
    for (k = 0; k < n; ++k) {
        double apk = rowp[k];
        double aqk = rowq[k];
        rowp[k] = c * apk - s * aqk;
        rowq[k] = s * apk + c * aqk;
    }
    // Accumulator update: thanks to the transposed layout this is two
    // contiguous rows as well, not two strided columns.
    double *vp = vt.rowPtr(p);
    double *vq = vt.rowPtr(q);
    for (k = 0; k < n; ++k) {
        double vkp = vp[k];
        double vkq = vq[k];
        vp[k] = c * vkp - s * vkq;
        vq[k] = s * vkp + c * vkq;
    }
}

} // namespace

EigenDecomposition
symmetricEigen(const Matrix &m, double tol, int max_sweeps)
{
    if (!m.isSymmetric(1e-8))
        throw std::invalid_argument("symmetricEigen: matrix not symmetric");

    std::size_t n = m.rows();
    Matrix a = m;
    // Transposed accumulator; identity is its own transpose.
    Matrix vt = Matrix::identity(n);

    // The convergence threshold is scaled by the matrix magnitude so
    // the solver behaves sensibly for matrices far from unit norm.
    double scale = std::max(1.0, a.frobeniusNorm());

    // Cyclic order: row p, then q = p+1 .. n-1.  Within a row each
    // rotation's (c, s) is planned while the previous one is applied.
    int sweep = 0;
    while (a.maxOffDiagonal() > tol * scale) {
        if (++sweep > max_sweeps)
            throw std::runtime_error("symmetricEigen: did not converge");
        for (std::size_t p = 0; p + 1 < n; ++p) {
            const double *rowp = a.rowPtr(p);
            Rotation next =
                plan(rowp[p + 1], rowp[p], a.rowPtr(p + 1)[p + 1]);
            for (std::size_t q = p + 1; q < n; ++q) {
                const Rotation cur = next;
                if (q + 1 < n)
                    next = following(a, p, q, cur);
                if (cur.active)
                    apply(a, vt, p, q, cur);
            }
        }
    }

    // Extract the diagonal and sort descending, permuting eigenvectors
    // to match.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                         return a(x, x) > a(y, y);
                     });

    EigenDecomposition out;
    out.values.resize(n);
    out.vectors = Matrix(n, n);
    for (std::size_t k = 0; k < n; ++k) {
        out.values[k] = a(order[k], order[k]);
        // vt row order[k] is eigenvector column order[k] of V.
        const double *vrow = vt.rowPtr(order[k]);
        for (std::size_t r = 0; r < n; ++r)
            out.vectors(r, k) = vrow[r];
    }
    return out;
}

} // namespace stats
} // namespace speclens
