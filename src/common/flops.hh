// Flop-count formulas for the operations QDWH is built from, following the
// LAPACK working notes (real-arithmetic counts; callers scale complex counts
// with fma_flops<T>()/2).
//
// The paper's overall complexity model (Section 4, square matrices):
//
//   C_QDWH(n) = 4/3 n^3  +  (8 + 2/3) n^3 * #it_QR
//             + (4 + 1/3) n^3 * #it_Chol  +  2 n^3
//
// is reproduced by qdwh_model_flops() and checked against the library's
// measured per-operation counters in bench_flops_model.

#pragma once

#include <algorithm>
#include <cstdint>

namespace tbp::flops {

inline double gemm(double m, double n, double k) { return 2.0 * m * n * k; }

inline double syrk(double n, double k) { return n * (n + 1) * k; }

inline double trsm(double side_m, double m, double n) {
    // side == Left: solve op(A) X = B with A m-by-m, B m-by-n.
    return side_m * m * n;  // pass side_m = m (Left) or n (Right)
}

inline double trsm_left(double m, double n) { return m * m * n; }
inline double trsm_right(double m, double n) { return n * n * m; }

inline double potrf(double n) { return n * n * n / 3.0 + n * n / 2.0; }

inline double unmqr(double m, double n, double k) {
    // Compact-WY applier on an m-by-n C with k reflectors, decomposed as
    // two unit-triangular trmm (k^2 n each), the op(T) trmm (k^2 n), two
    // dense GEMM panels (2(m-k)kn each), and the rank-update adds (2kn).
    return 4.0 * (m - k) * k * n + 3.0 * k * k * n + 2.0 * k * n;
}

inline double tsmqr(double m2, double n, double k_cols) {
    // Triangle-on-square applier: two m2-deep GEMM panels (2 m2 n k each),
    // the op(T) trmm (n^2 k), and the subtraction into C1 (2 n k).
    return 4.0 * m2 * n * k_cols + n * n * k_cols + 2.0 * n * k_cols;
}

inline double tsqrt(double m2, double n) {
    // Triangle-on-square panel factorization: reflector applications
    // (~2 m2 n^2), the T inner products (~m2 n^2), and the triangular
    // T composition (~n^3 / 3).
    return 3.0 * m2 * n * n + n * n * n / 3.0;
}

/// Entries in the upper trapezoid (diagonal included) of an m2-by-n tile
/// with m2 <= n: sum_j min(j + 1, m2). The reflector tails of ttqrt and
/// both V2 products of ttmqr touch exactly this set.
inline double tri_sum(int m2, int n) {
    double const d2 = static_cast<double>(m2);
    return d2 * (d2 + 1.0) / 2.0 + static_cast<double>(n - m2) * d2;
}

inline double ttqrt(int m2, int n) {
    // Triangle-on-triangle panel fold: column j's reflector tail has
    // t_j = min(j + 1, m2) rows, so the trailing applies cost
    // 4 sum_j t_j (n-1-j) plus the top-row updates, the T inner products
    // another 2 sum_j t_j (n-1-j), and the triangular T composition n^3/3.
    // At m2 == n this is ~4/3 n^3 vs tsqrt's 10/3 n^3 (2.5x cheaper).
    double x = 0;
    for (int j = 0; j < n; ++j)
        x += static_cast<double>(std::min(j + 1, m2)) * (n - 1 - j);
    double const dn = static_cast<double>(n);
    return 6.0 * x + dn * dn + dn * dn * dn / 3.0;
}

inline double ttmqr(int m2, int n, int nn, bool c2_zero) {
    // Triangle-on-triangle applier: the V2^H C2 accumulation (skipped when
    // C2 is known zero) and the V2 S product each touch the trapezoid once
    // per C column, plus the op(T) trmm and the C1 subtraction. At
    // m2 == n: 3 n^2 nn (2 n^2 nn when c2_zero) vs tsmqr's 5 n^2 nn.
    double const dn = static_cast<double>(n);
    double const dnn = static_cast<double>(nn);
    return (c2_zero ? 2.0 : 4.0) * tri_sum(m2, n) * dnn + dn * dn * dnn
           + 2.0 * dn * dnn;
}

inline double geqrf(double m, double n) {
    // 2mn^2 - 2/3 n^3 + lower order
    return 2.0 * m * n * n - 2.0 / 3.0 * n * n * n;
}

inline double ungqr(double m, double n, double k) {
    return 4.0 * m * n * k - 2.0 * (m + n) * k * k + 4.0 / 3.0 * k * k * k;
}

/// Paper Section 4: QDWH flop model for an m>=n matrix (counts given for
/// square n; the rectangular generalization charges QR work on m+n rows).
inline double qdwh_model(double n, int it_qr, int it_chol) {
    double n3 = n * n * n;
    return 4.0 / 3.0 * n3                       // condition estimate (QR)
           + (8.0 + 2.0 / 3.0) * n3 * it_qr     // QR-based iterations
           + (4.0 + 1.0 / 3.0) * n3 * it_chol   // Cholesky-based iterations
           + 2.0 * n3;                          // H = U^H A
}

/// QDWH model with the structure-exploiting stacked QR (square n): the
/// identity block of W = [sqrt(c) A; I] stays block upper triangular, which
/// halves its fold cost in geqrf (2n^3 -> n^3) and in ungqr, and the upper
/// triangular Q2 = R^{-1} halves the Q1 Q2^H gemm (2n^3 -> n^3), so a QR
/// iteration costs 17/3 n^3 instead of 26/3 n^3 (~35% fewer flops).
inline double qdwh_model_structured(double n, int it_qr, int it_chol) {
    double n3 = n * n * n;
    return 4.0 / 3.0 * n3
           + (5.0 + 2.0 / 3.0) * n3 * it_qr
           + (4.0 + 1.0 / 3.0) * n3 * it_chol
           + 2.0 * n3;
}

}  // namespace tbp::flops
